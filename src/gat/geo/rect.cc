#include "gat/geo/rect.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace gat {

Rect Rect::Empty() {
  Rect r;
  r.min = Point{std::numeric_limits<double>::max(),
                std::numeric_limits<double>::max()};
  r.max = Point{std::numeric_limits<double>::lowest(),
                std::numeric_limits<double>::lowest()};
  return r;
}

void Rect::Expand(const Point& p) {
  min.x = std::min(min.x, p.x);
  min.y = std::min(min.y, p.y);
  max.x = std::max(max.x, p.x);
  max.y = std::max(max.y, p.y);
}

void Rect::Expand(const Rect& other) {
  if (other.IsEmpty()) return;
  Expand(other.min);
  Expand(other.max);
}

double Rect::Area() const {
  if (IsEmpty()) return 0.0;
  return Width() * Height();
}

double MinDistSquared(const Point& p, const Rect& r) {
  double dx = 0.0;
  if (p.x < r.min.x) {
    dx = r.min.x - p.x;
  } else if (p.x > r.max.x) {
    dx = p.x - r.max.x;
  }
  double dy = 0.0;
  if (p.y < r.min.y) {
    dy = r.min.y - p.y;
  } else if (p.y > r.max.y) {
    dy = p.y - r.max.y;
  }
  return dx * dx + dy * dy;
}

double MinDist(const Point& p, const Rect& r) {
  return std::sqrt(MinDistSquared(p, r));
}

std::string ToString(const Rect& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%s - %s]", ToString(r.min).c_str(),
                ToString(r.max).c_str());
  return buf;
}

}  // namespace gat
