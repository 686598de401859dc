#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geometry/distance.h"
#include "geometry/point.h"
#include "geometry/predicates.h"
#include "geometry/rectangle.h"

namespace spatialjoin {
namespace {

TEST(PointTest, Arithmetic) {
  Point a(1, 2);
  Point b(3, -1);
  EXPECT_EQ(a + b, Point(4, 1));
  EXPECT_EQ(a - b, Point(-2, 3));
  EXPECT_EQ(a * 2.0, Point(2, 4));
  EXPECT_DOUBLE_EQ(a.Dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.Cross(b), -7.0);
}

TEST(PointTest, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(Distance(Point(0, 0), Point(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(Distance2(Point(0, 0), Point(3, 4)), 25.0);
  EXPECT_DOUBLE_EQ(Distance(Point(1, 1), Point(1, 1)), 0.0);
}

TEST(RectangleTest, EmptyBehaves) {
  Rectangle empty = Rectangle::Empty();
  EXPECT_TRUE(empty.is_empty());
  EXPECT_DOUBLE_EQ(empty.Area(), 0.0);
  Rectangle r(0, 0, 2, 2);
  EXPECT_FALSE(empty.Overlaps(r));
  EXPECT_FALSE(r.Overlaps(empty));
  EXPECT_TRUE(r.Contains(empty));   // empty set is everywhere contained
  EXPECT_FALSE(empty.Contains(r));
  EXPECT_EQ(empty.Union(r), r);
  EXPECT_EQ(r.Union(empty), r);
}

TEST(RectangleTest, AreaMarginCenter) {
  Rectangle r(1, 2, 4, 6);
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 7.0);
  EXPECT_EQ(r.Center(), Point(2.5, 4.0));
}

TEST(RectangleTest, OverlapIsClosedAndSymmetric) {
  Rectangle a(0, 0, 1, 1);
  Rectangle touching(1, 0, 2, 1);  // shares an edge
  Rectangle apart(1.5, 0, 2, 1);
  EXPECT_TRUE(a.Overlaps(touching));
  EXPECT_TRUE(touching.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(apart));
  EXPECT_TRUE(a.Overlaps(a));
}

TEST(RectangleTest, ContainsIncludesBoundary) {
  Rectangle outer(0, 0, 10, 10);
  EXPECT_TRUE(outer.Contains(Rectangle(0, 0, 10, 10)));
  EXPECT_TRUE(outer.Contains(Rectangle(2, 2, 5, 5)));
  EXPECT_FALSE(outer.Contains(Rectangle(2, 2, 11, 5)));
  EXPECT_TRUE(outer.ContainsPoint(Point(0, 0)));
  EXPECT_TRUE(outer.ContainsPoint(Point(10, 10)));
  EXPECT_FALSE(outer.ContainsPoint(Point(10.001, 5)));
}

TEST(RectangleTest, UnionIntersection) {
  Rectangle a(0, 0, 2, 2);
  Rectangle b(1, 1, 3, 3);
  EXPECT_EQ(a.Union(b), Rectangle(0, 0, 3, 3));
  EXPECT_EQ(a.Intersection(b), Rectangle(1, 1, 2, 2));
  Rectangle apart(5, 5, 6, 6);
  EXPECT_TRUE(a.Intersection(apart).is_empty());
}

TEST(RectangleTest, Enlargement) {
  Rectangle a(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rectangle(1, 1, 2, 2)), 0.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rectangle(0, 0, 4, 2)), 4.0);
}

TEST(RectangleTest, MinMaxDistance) {
  Rectangle a(0, 0, 1, 1);
  Rectangle b(4, 5, 6, 7);
  // Closest points: (1,1) and (4,5) → distance 5.
  EXPECT_DOUBLE_EQ(a.MinDistance(b), 5.0);
  EXPECT_DOUBLE_EQ(a.MinDistance(a), 0.0);
  Rectangle overlapping(0.5, 0.5, 2, 2);
  EXPECT_DOUBLE_EQ(a.MinDistance(overlapping), 0.0);
  // Farthest corners of a∪b: (0,0) and (6,7).
  EXPECT_DOUBLE_EQ(a.MaxDistance(b), std::sqrt(36.0 + 49.0));
  EXPECT_DOUBLE_EQ(a.MinDistanceToPoint(Point(0.5, 0.5)), 0.0);
  EXPECT_DOUBLE_EQ(a.MinDistanceToPoint(Point(1, 4)), 3.0);
}

TEST(RectangleTest, ExpandedGrowsAllSides) {
  Rectangle r(1, 1, 2, 2);
  EXPECT_EQ(r.Expanded(0.5), Rectangle(0.5, 0.5, 2.5, 2.5));
  EXPECT_EQ(r.Expanded(0.0), r);
  // Negative shrink is allowed while the rectangle stays valid.
  EXPECT_EQ(r.Expanded(-0.25), Rectangle(1.25, 1.25, 1.75, 1.75));
}

TEST(RectangleTest, ExtendAccumulatesBoundingBox) {
  Rectangle box;
  box.ExtendPoint(Point(1, 5));
  box.ExtendPoint(Point(-2, 3));
  box.ExtendPoint(Point(0, 7));
  EXPECT_EQ(box, Rectangle(-2, 3, 1, 7));
}

// ExtendPoint updates in place; it must agree with extending by the
// point's degenerate rectangle.
TEST(RectangleTest, ExtendPointMatchesExtendByFromPoint) {
  Rng rng(3);
  Rectangle in_place;
  Rectangle by_rect;
  for (int i = 0; i < 200; ++i) {
    const Point p(rng.NextDouble(-50, 50), rng.NextDouble(-50, 50));
    in_place.ExtendPoint(p);
    by_rect.Extend(Rectangle::FromPoint(p));
    ASSERT_EQ(in_place, by_rect) << i;
  }
}

// ...and reject NaN, as FromPoint's checked constructor does.
TEST(RectangleDeathTest, ExtendPointRejectsNaN) {
  EXPECT_DEATH(Rectangle().ExtendPoint(Point(std::nan(""), 0)),
               "invalid point");
  Rectangle box(0, 0, 1, 1);
  EXPECT_DEATH(box.ExtendPoint(Point(0, std::nan(""))), "invalid point");
}

TEST(PredicatesTest, Orientation) {
  EXPECT_EQ(Orientation(Point(0, 0), Point(1, 0), Point(1, 1)), 1);
  EXPECT_EQ(Orientation(Point(0, 0), Point(1, 0), Point(1, -1)), -1);
  EXPECT_EQ(Orientation(Point(0, 0), Point(1, 0), Point(2, 0)), 0);
}

TEST(PredicatesTest, PointOnSegment) {
  EXPECT_TRUE(PointOnSegment(Point(1, 1), Point(0, 0), Point(2, 2)));
  EXPECT_TRUE(PointOnSegment(Point(0, 0), Point(0, 0), Point(2, 2)));
  EXPECT_FALSE(PointOnSegment(Point(3, 3), Point(0, 0), Point(2, 2)));
  EXPECT_FALSE(PointOnSegment(Point(1, 1.5), Point(0, 0), Point(2, 2)));
}

TEST(PredicatesTest, SegmentsIntersect) {
  // Proper crossing.
  EXPECT_TRUE(SegmentsIntersect(Point(0, 0), Point(2, 2), Point(0, 2),
                                Point(2, 0)));
  // Shared endpoint.
  EXPECT_TRUE(SegmentsIntersect(Point(0, 0), Point(1, 1), Point(1, 1),
                                Point(2, 0)));
  // Collinear overlapping.
  EXPECT_TRUE(SegmentsIntersect(Point(0, 0), Point(2, 0), Point(1, 0),
                                Point(3, 0)));
  // Collinear disjoint.
  EXPECT_FALSE(SegmentsIntersect(Point(0, 0), Point(1, 0), Point(2, 0),
                                 Point(3, 0)));
  // Parallel.
  EXPECT_FALSE(SegmentsIntersect(Point(0, 0), Point(2, 0), Point(0, 1),
                                 Point(2, 1)));
  // Nearly collinear and nearly parallel, one unit apart: one orientation
  // is zero within the tolerance, so they do not cross, and no endpoint
  // touches the other segment.
  EXPECT_FALSE(SegmentsIntersect(Point(2, 4e-13), Point(12, 2.4e-12),
                                 Point(-1, 0), Point(1, 0)));
  EXPECT_FALSE(SegmentsIntersect(Point(-1, 0), Point(1, 0), Point(2, 4e-13),
                                 Point(12, 2.4e-12)));
  // The same with an endpoint on the other segment does touch.
  EXPECT_TRUE(SegmentsIntersect(Point(1, 1e-13), Point(12, 2.4e-12),
                                Point(-1, 0), Point(1, 0)));
}

TEST(PredicatesTest, NorthwestOfIsStrict) {
  EXPECT_TRUE(NorthwestOf(Point(0, 2), Point(1, 1)));
  EXPECT_FALSE(NorthwestOf(Point(1, 1), Point(0, 2)));
  EXPECT_FALSE(NorthwestOf(Point(1, 2), Point(1, 1)));  // same x
  EXPECT_FALSE(NorthwestOf(Point(0, 1), Point(1, 1)));  // same y
}

TEST(DistanceTest, PointSegment) {
  EXPECT_DOUBLE_EQ(DistancePointSegment(Point(0, 1), Point(-1, 0),
                                        Point(1, 0)),
                   1.0);
  // Beyond the endpoint: distance to the endpoint.
  EXPECT_DOUBLE_EQ(DistancePointSegment(Point(3, 4), Point(-1, 0),
                                        Point(0, 0)),
                   5.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(DistancePointSegment(Point(3, 4), Point(0, 0),
                                        Point(0, 0)),
                   5.0);
}

TEST(DistanceTest, SegmentSegment) {
  EXPECT_DOUBLE_EQ(DistanceSegmentSegment(Point(0, 0), Point(1, 0),
                                          Point(0, 2), Point(1, 2)),
                   2.0);
  EXPECT_DOUBLE_EQ(DistanceSegmentSegment(Point(0, 0), Point(2, 2),
                                          Point(0, 2), Point(2, 0)),
                   0.0);
}

// Property: MinDistance(a,b) is 0 iff the rectangles overlap, and is
// symmetric; randomized over many rectangle pairs.
TEST(RectanglePropertyTest, MinDistanceConsistentWithOverlap) {
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    auto rand_rect = [&] {
      double x = rng.NextDouble(0, 90);
      double y = rng.NextDouble(0, 90);
      return Rectangle(x, y, x + rng.NextDouble(0.1, 10),
                       y + rng.NextDouble(0.1, 10));
    };
    Rectangle a = rand_rect();
    Rectangle b = rand_rect();
    double dab = a.MinDistance(b);
    double dba = b.MinDistance(a);
    EXPECT_DOUBLE_EQ(dab, dba);
    EXPECT_EQ(dab == 0.0, a.Overlaps(b));
    EXPECT_LE(dab, a.MaxDistance(b));
  }
}

// Property: Union contains both operands; Intersection is contained in
// both.
TEST(RectanglePropertyTest, UnionIntersectionContainment) {
  Rng rng(321);
  for (int trial = 0; trial < 500; ++trial) {
    auto rand_rect = [&] {
      double x = rng.NextDouble(0, 50);
      double y = rng.NextDouble(0, 50);
      return Rectangle(x, y, x + rng.NextDouble(0.1, 30),
                       y + rng.NextDouble(0.1, 30));
    };
    Rectangle a = rand_rect();
    Rectangle b = rand_rect();
    Rectangle u = a.Union(b);
    EXPECT_TRUE(u.Contains(a));
    EXPECT_TRUE(u.Contains(b));
    Rectangle inter = a.Intersection(b);
    EXPECT_TRUE(a.Contains(inter));
    EXPECT_TRUE(b.Contains(inter));
    EXPECT_GE(u.Area() + 1e-9, std::max(a.Area(), b.Area()));
  }
}

}  // namespace
}  // namespace spatialjoin
