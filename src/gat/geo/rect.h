#ifndef GAT_GEO_RECT_H_
#define GAT_GEO_RECT_H_

#include <string>

#include "gat/geo/point.h"

namespace gat {

/// Axis-aligned rectangle (MBR). Used by the grid cells of the GAT index
/// and by the R-tree baselines.
struct Rect {
  Point min;
  Point max;

  /// An "empty" rectangle that absorbs any point on Expand.
  static Rect Empty();

  bool IsEmpty() const { return min.x > max.x || min.y > max.y; }

  bool Contains(const Point& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  bool Intersects(const Rect& other) const {
    return !(other.min.x > max.x || other.max.x < min.x ||
             other.min.y > max.y || other.max.y < min.y);
  }

  /// Grows to include `p`.
  void Expand(const Point& p);

  /// Grows to include `other`.
  void Expand(const Rect& other);

  double Width() const { return max.x - min.x; }
  double Height() const { return max.y - min.y; }
  double Area() const;

  /// Half-perimeter margin.
  double Margin() const { return Width() + Height(); }

  Point Center() const { return Point{(min.x + max.x) / 2, (min.y + max.y) / 2}; }

  bool operator==(const Rect& other) const {
    return min == other.min && max == other.max;
  }
};

/// Minimum distance from a point to a rectangle (0 when inside). This is
/// `mdist` in the paper's candidate-retrieval priority queue (Section V-A)
/// and the MBR bound of best-first R-tree search.
double MinDist(const Point& p, const Rect& r);

/// Squared MinDist.
double MinDistSquared(const Point& p, const Rect& r);

/// Debug representation.
std::string ToString(const Rect& r);

}  // namespace gat

#endif  // GAT_GEO_RECT_H_
