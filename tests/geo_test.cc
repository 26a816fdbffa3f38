// Tests for the geometry substrate: points, rectangles, distances.

#include <gtest/gtest.h>

#include <cmath>

#include "gat/geo/point.h"
#include "gat/geo/rect.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

TEST(PointDistance, Euclidean) {
  EXPECT_DOUBLE_EQ(Distance(Point{0, 0}, Point{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance(Point{1, 1}, Point{1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(DistanceSquared(Point{0, 0}, Point{3, 4}), 25.0);
}

TEST(PointDistance, Symmetry) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)};
    const Point b{rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)};
    EXPECT_DOUBLE_EQ(Distance(a, b), Distance(b, a));
  }
}

TEST(PointDistance, TriangleInequality) {
  Rng rng(100);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
    const Point b{rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
    const Point c{rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
    EXPECT_LE(Distance(a, c), Distance(a, b) + Distance(b, c) + 1e-12);
  }
}

TEST(ProjectLonLat, MetroScaleAccuracy) {
  // Two points ~1 km apart near Los Angeles (34N).
  const Point a = ProjectLonLat(-118.2437, 34.0522, 34.0);
  const Point b = ProjectLonLat(-118.2437, 34.0612, 34.0);
  EXPECT_NEAR(Distance(a, b), 1.0, 0.02);  // 0.009 deg lat ~ 1.0007 km
}

TEST(Rect, EmptyAbsorbsPoints) {
  Rect r = Rect::Empty();
  EXPECT_TRUE(r.IsEmpty());
  r.Expand(Point{2, 3});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_TRUE(r.Contains(Point{2, 3}));
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  r.Expand(Point{4, 1});
  EXPECT_DOUBLE_EQ(r.Width(), 2.0);
  EXPECT_DOUBLE_EQ(r.Height(), 2.0);
  EXPECT_DOUBLE_EQ(r.Area(), 4.0);
}

TEST(Rect, ContainsBoundary) {
  const Rect r{Point{0, 0}, Point{2, 2}};
  EXPECT_TRUE(r.Contains(Point{0, 0}));
  EXPECT_TRUE(r.Contains(Point{2, 2}));
  EXPECT_TRUE(r.Contains(Point{1, 2}));
  EXPECT_FALSE(r.Contains(Point{2.0001, 1}));
}

TEST(Rect, Intersects) {
  const Rect a{Point{0, 0}, Point{2, 2}};
  EXPECT_TRUE(a.Intersects(Rect{Point{1, 1}, Point{3, 3}}));
  EXPECT_TRUE(a.Intersects(Rect{Point{2, 2}, Point{3, 3}}));  // touching
  EXPECT_FALSE(a.Intersects(Rect{Point{2.1, 0}, Point{3, 1}}));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(Rect, ExpandRect) {
  Rect a{Point{0, 0}, Point{1, 1}};
  a.Expand(Rect{Point{2, -1}, Point{3, 0.5}});
  EXPECT_EQ(a, (Rect{Point{0, -1}, Point{3, 1}}));
  // Expanding with an empty rect is a no-op.
  Rect b = a;
  b.Expand(Rect::Empty());
  EXPECT_EQ(a, b);
}

TEST(MinDist, InsideIsZero) {
  const Rect r{Point{0, 0}, Point{4, 4}};
  EXPECT_DOUBLE_EQ(MinDist(Point{2, 2}, r), 0.0);
  EXPECT_DOUBLE_EQ(MinDist(Point{0, 4}, r), 0.0);  // on the border
}

TEST(MinDist, AxisAndCorner) {
  const Rect r{Point{0, 0}, Point{4, 4}};
  EXPECT_DOUBLE_EQ(MinDist(Point{-3, 2}, r), 3.0);   // left face
  EXPECT_DOUBLE_EQ(MinDist(Point{2, 10}, r), 6.0);   // top face
  EXPECT_DOUBLE_EQ(MinDist(Point{7, 8}, r), 5.0);    // corner (3,4)
}

TEST(MinDist, LowerBoundsDistanceToAnyInnerPoint) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Rect r{Point{rng.NextDouble(0, 5), rng.NextDouble(0, 5)}, Point{}};
    r.max = Point{r.min.x + rng.NextDouble(0, 5), r.min.y + rng.NextDouble(0, 5)};
    const Point q{rng.NextDouble(-10, 15), rng.NextDouble(-10, 15)};
    const Point inner{rng.NextDouble(r.min.x, r.max.x + 1e-12),
                      rng.NextDouble(r.min.y, r.max.y + 1e-12)};
    EXPECT_LE(MinDist(q, r), Distance(q, inner) + 1e-9);
  }
}

TEST(Rect, MarginAndCenter) {
  const Rect r{Point{0, 0}, Point{4, 2}};
  EXPECT_DOUBLE_EQ(r.Margin(), 6.0);
  EXPECT_EQ(r.Center(), (Point{2, 1}));
}

}  // namespace
}  // namespace gat
