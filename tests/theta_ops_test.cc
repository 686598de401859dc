#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/theta_ops.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

TEST(CenterpointTest, AllSpatialTypes) {
  EXPECT_EQ(CenterpointOf(Value(Point(3, 4))), Point(3, 4));
  EXPECT_EQ(CenterpointOf(Value(Rectangle(0, 0, 2, 4))), Point(1, 2));
  Polygon square({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_EQ(CenterpointOf(Value(square)), Point(1, 1));
}

TEST(GeometryHelpersTest, MixedTypeDistance) {
  Value point(Point(0, 0));
  Value rect(Rectangle(3, 0, 5, 2));
  Value poly(Polygon({{0, 5}, {2, 5}, {1, 7}}));
  EXPECT_DOUBLE_EQ(MinDistanceBetween(point, rect), 3.0);
  EXPECT_DOUBLE_EQ(MinDistanceBetween(rect, point), 3.0);
  EXPECT_DOUBLE_EQ(MinDistanceBetween(point, poly), 5.0);
  EXPECT_DOUBLE_EQ(MinDistanceBetween(rect, poly), 0.0 +
                       MinDistanceBetween(poly, rect));
  EXPECT_DOUBLE_EQ(MinDistanceBetween(point, point), 0.0);
}

TEST(GeometryHelpersTest, MixedTypeOverlap) {
  Value rect(Rectangle(0, 0, 2, 2));
  EXPECT_TRUE(GeometriesOverlap(Value(Point(1, 1)), rect));
  EXPECT_FALSE(GeometriesOverlap(Value(Point(3, 3)), rect));
  Value poly(Polygon({{1, 1}, {3, 1}, {3, 3}, {1, 3}}));
  EXPECT_TRUE(GeometriesOverlap(rect, poly));
  EXPECT_TRUE(GeometriesOverlap(poly, rect));
  EXPECT_FALSE(GeometriesOverlap(Value(Rectangle(5, 5, 6, 6)), poly));
}

TEST(GeometryHelpersTest, Containment) {
  Value big(Rectangle(0, 0, 10, 10));
  Value small(Rectangle(1, 1, 2, 2));
  EXPECT_TRUE(GeometryContains(big, small));
  EXPECT_FALSE(GeometryContains(small, big));
  EXPECT_TRUE(GeometryContains(big, Value(Point(5, 5))));
  Value poly(Polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}}));
  EXPECT_TRUE(GeometryContains(poly, small));
}

TEST(GeometryHelpersTest, PolylineSupport) {
  Value river(Polyline({{0, 5}, {10, 5}}));
  // Centerpoint of a curve: its arc-length midpoint.
  EXPECT_EQ(CenterpointOf(river), Point(5, 5));
  // Distances against every other type.
  EXPECT_DOUBLE_EQ(MinDistanceBetween(river, Value(Point(5, 8))), 3.0);
  EXPECT_DOUBLE_EQ(MinDistanceBetween(Value(Point(5, 8)), river), 3.0);
  EXPECT_DOUBLE_EQ(
      MinDistanceBetween(river, Value(Rectangle(2, 6, 4, 7))), 1.0);
  EXPECT_DOUBLE_EQ(
      MinDistanceBetween(river, Value(Rectangle(2, 4, 4, 6))), 0.0);
  Value other(Polyline({{0, 7}, {10, 7}}));
  EXPECT_DOUBLE_EQ(MinDistanceBetween(river, other), 2.0);
  Value crossing(Polyline({{5, 0}, {5, 10}}));
  EXPECT_DOUBLE_EQ(MinDistanceBetween(river, crossing), 0.0);
  // Overlap = distance-0 contact for curves.
  EXPECT_TRUE(GeometriesOverlap(river, crossing));
  EXPECT_FALSE(GeometriesOverlap(river, other));
  // Containment: areas contain curves, curves contain on-curve points.
  Value area(Polygon({{-1, 0}, {11, 0}, {11, 10}, {-1, 10}}));
  EXPECT_TRUE(GeometryContains(area, river));
  EXPECT_FALSE(GeometryContains(river, area));
  EXPECT_TRUE(GeometryContains(river, Value(Point(3, 5))));
  EXPECT_FALSE(GeometryContains(river, Value(Point(3, 6))));
  Value small_area(Polygon({{2, 4}, {6, 4}, {6, 6}, {2, 6}}));
  EXPECT_FALSE(GeometryContains(small_area, river));  // river exits
}

TEST(ThetaOpsTest, PolylineWithOperators) {
  Value road(Polyline({{0, 0}, {20, 0}}));
  Value town(Rectangle(5, 3, 8, 6));
  ReachableWithinOp reachable(2.0, 2.0);  // 4 units
  EXPECT_TRUE(reachable.Theta(road, town));
  WithinDistanceOp within(12.0);  // centerpoints: (10,0) vs (6.5,4.5)
  EXPECT_TRUE(within.Theta(road, town));
  OverlapsOp overlaps;
  EXPECT_FALSE(overlaps.Theta(road, town));
  EXPECT_TRUE(overlaps.Theta(road, Value(Rectangle(5, -1, 8, 1))));
}

TEST(WithinDistanceOpTest, CenterpointSemantics) {
  WithinDistanceOp op(5.0);
  // θ measures between centerpoints (Table 1).
  Value a(Rectangle(0, 0, 2, 2));   // center (1,1)
  Value b(Rectangle(4, 1, 6, 1.0));  // degenerate; center (5,1)
  EXPECT_TRUE(op.Theta(a, b));   // distance 4 ≤ 5
  Value c(Rectangle(8, 1, 10, 1));  // center (9,1): distance 8
  EXPECT_FALSE(op.Theta(a, c));
  // Θ measures between closest points of the MBRs.
  EXPECT_TRUE(op.ThetaUpper(Rectangle(0, 0, 2, 2), Rectangle(6, 0, 8, 2)));
  EXPECT_FALSE(op.ThetaUpper(Rectangle(0, 0, 2, 2),
                             Rectangle(8, 0, 9, 2)));
  EXPECT_TRUE(op.is_symmetric());
}

TEST(OverlapsOpTest, Semantics) {
  OverlapsOp op;
  EXPECT_TRUE(op.Theta(Value(Rectangle(0, 0, 2, 2)),
                       Value(Rectangle(1, 1, 3, 3))));
  EXPECT_FALSE(op.Theta(Value(Rectangle(0, 0, 1, 1)),
                        Value(Rectangle(2, 2, 3, 3))));
  EXPECT_TRUE(op.ThetaUpper(Rectangle(0, 0, 2, 2), Rectangle(1, 1, 3, 3)));
}

TEST(IncludesOpTest, AsymmetricPair) {
  IncludesOp includes;
  ContainedInOp contained;
  Value big(Rectangle(0, 0, 10, 10));
  Value small(Rectangle(2, 2, 3, 3));
  EXPECT_TRUE(includes.Theta(big, small));
  EXPECT_FALSE(includes.Theta(small, big));
  EXPECT_TRUE(contained.Theta(small, big));
  EXPECT_FALSE(contained.Theta(big, small));
  // Θ for both is plain overlap (Fig. 4).
  EXPECT_TRUE(includes.ThetaUpper(Rectangle(0, 0, 2, 2),
                                  Rectangle(1, 1, 3, 3)));
}

TEST(NorthwestOfOpTest, QuadrantConstruction) {
  NorthwestOfOp op;
  EXPECT_TRUE(op.Theta(Value(Point(0, 10)), Value(Point(5, 5))));
  EXPECT_FALSE(op.Theta(Value(Point(6, 10)), Value(Point(5, 5))));
  // Fig. 5: Θ true iff a overlaps the NW quadrant of b.
  Rectangle b(4, 4, 6, 6);
  EXPECT_TRUE(op.ThetaUpper(Rectangle(0, 8, 1, 9), b));   // clearly NW
  EXPECT_TRUE(op.ThetaUpper(Rectangle(5, 5, 7, 7), b));   // overlaps quad
  EXPECT_FALSE(op.ThetaUpper(Rectangle(7, 0, 8, 3), b));  // SE: x > max_x
  EXPECT_FALSE(op.ThetaUpper(Rectangle(0, 0, 1, 3), b));  // S: y < min_y
}

TEST(ReachableWithinOpTest, SpeedModel) {
  ReachableWithinOp op(10.0, 2.0);  // 10 minutes at 2 km/min → 20 km
  EXPECT_TRUE(op.Theta(Value(Point(0, 0)), Value(Point(20, 0))));
  EXPECT_FALSE(op.Theta(Value(Point(0, 0)), Value(Point(20.1, 0))));
  EXPECT_TRUE(op.ThetaUpper(Rectangle(0, 0, 1, 1),
                            Rectangle(21, 0, 22, 1)));
  EXPECT_FALSE(op.ThetaUpper(Rectangle(0, 0, 1, 1),
                             Rectangle(21.2, 0, 22, 1)));
}

TEST(AdjacentOpTest, Fig1Semantics) {
  AdjacentOp op;
  // The paper's Fig.-1 situation: grid-neighbor squares touch without
  // sharing interior — adjacent; overlapping or distant squares are not.
  Value o3(Rectangle(0, 0, 1, 1));
  Value o9(Rectangle(1, 0, 2, 1));   // shares the x=1 edge
  Value corner(Rectangle(1, 1, 2, 2));  // shares only the corner (1,1)
  Value overlapping(Rectangle(0.5, 0, 1.5, 1));
  Value apart(Rectangle(3, 3, 4, 4));
  EXPECT_TRUE(op.Theta(o3, o9));
  EXPECT_TRUE(op.Theta(o9, o3));
  EXPECT_TRUE(op.Theta(o3, corner));
  EXPECT_FALSE(op.Theta(o3, overlapping));
  EXPECT_FALSE(op.Theta(o3, apart));
  EXPECT_FALSE(op.Theta(o3, o3));  // shares its own interior
  // Θ is closed overlap — conservative for adjacency.
  EXPECT_TRUE(op.ThetaUpper(o3.Mbr(), o9.Mbr()));
  EXPECT_TRUE(op.ThetaUpper(o3.Mbr(), overlapping.Mbr()));
  EXPECT_FALSE(op.ThetaUpper(o3.Mbr(), apart.Mbr()));
}

TEST(AdjacentOpTest, MixedGeometryAdjacency) {
  AdjacentOp op;
  // A point on a rectangle's edge: contact without interior.
  EXPECT_TRUE(op.Theta(Value(Point(1, 0.5)), Value(Rectangle(1, 0, 2, 1))));
  EXPECT_FALSE(op.Theta(Value(Point(3, 3)), Value(Rectangle(1, 0, 2, 1))));
  // Polygons sharing an edge vs properly crossing.
  Polygon left({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  Polygon right({{2, 0}, {4, 0}, {4, 2}, {2, 2}});
  Polygon crossing({{1, -1}, {3, -1}, {3, 1}, {1, 1}});
  EXPECT_TRUE(op.Theta(Value(left), Value(right)));
  EXPECT_FALSE(op.Theta(Value(left), Value(crossing)));
  // A polyline ending on a polygon boundary.
  Polyline road({{2, 3}, {2, 2}});
  EXPECT_TRUE(op.Theta(Value(road), Value(left)));
}

TEST(CountingThetaTest, CountsBothLevels) {
  OverlapsOp inner;
  CountingTheta counting(&inner);
  counting.Theta(Value(Point(0, 0)), Value(Point(0, 0)));
  counting.ThetaUpper(Rectangle(0, 0, 1, 1), Rectangle(0, 0, 1, 1));
  counting.ThetaUpper(Rectangle(0, 0, 1, 1), Rectangle(5, 5, 6, 6));
  EXPECT_EQ(counting.theta_count(), 1);
  EXPECT_EQ(counting.theta_upper_count(), 2);
  EXPECT_EQ(counting.total_count(), 3);
  counting.Reset();
  EXPECT_EQ(counting.total_count(), 0);
}

// Four planes holding exactly `size` MBRs and nothing after them, so a
// load past the last element leaves the allocation (which ASan reports).
struct ExactPlanes {
  ExactPlanes(const std::vector<Rectangle>& rects, int64_t size) {
    MbrPlaneBuffer buffer;
    for (int64_t i = 0; i < size; ++i) {
      buffer.AppendMbr(rects[static_cast<size_t>(i)]);
    }
    const MbrPlanes from = buffer.view();
    for (auto [plane, source] :
         {std::pair{&min_x, from.min_x}, std::pair{&min_y, from.min_y},
          std::pair{&max_x, from.max_x}, std::pair{&max_y, from.max_y}}) {
      *plane = std::make_unique<double[]>(static_cast<size_t>(size));
      std::copy_n(source, size, plane->get());
    }
  }

  MbrPlanes view() const {
    return {min_x.get(), min_y.get(), max_x.get(), max_y.get()};
  }

  std::unique_ptr<double[]> min_x;
  std::unique_ptr<double[]> min_y;
  std::unique_ptr<double[]> max_x;
  std::unique_ptr<double[]> max_y;
};

// ThetaUpperBatch must give exactly the scalar ThetaUpper answers as a bit
// mask: for every Table 1 operator (the overlap family shares an SSE2
// override that tests two MBRs per compare, the others keep the
// per-element default) and for CountingTheta, in both operand orders,
// over random, touching, zero-width, unbounded and empty rectangles. The
// planes have no empty flag, so the empty rectangle's encoding is what is
// under test there. Runs of 1 to 129 elements and the whole run start at
// elements 0, 1 and 5 (unaligned loads) and end at the planes' last
// element; the out words start as all ones, and every bit at or past n
// must come back 0 and no word past MaskWords(n) may be written.
TEST(ThetaUpperBatchTest, EqualsScalarThetaUpper) {
  std::vector<std::unique_ptr<ThetaOperator>> ops;
  ops.push_back(std::make_unique<WithinDistanceOp>(15.0));
  ops.push_back(std::make_unique<OverlapsOp>());
  ops.push_back(std::make_unique<IncludesOp>());
  ops.push_back(std::make_unique<ContainedInOp>());
  ops.push_back(std::make_unique<NorthwestOfOp>());
  ops.push_back(std::make_unique<ReachableWithinOp>(5.0, 2.0));
  ops.push_back(std::make_unique<AdjacentOp>());
  OverlapsOp counted_overlaps;
  WithinDistanceOp counted_within(15.0);
  ops.push_back(std::make_unique<CountingTheta>(&counted_overlaps));
  ops.push_back(std::make_unique<CountingTheta>(&counted_within));

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Rectangle> rects = {
      Rectangle(40, 40, 60, 60),    // the base the next ones touch
      Rectangle(60, 45, 70, 55),    // shares the base's right edge
      Rectangle(60, 60, 70, 70),    // shares only its top-right corner
      Rectangle(20, 60, 40, 80),    // shares only its top-left corner
      Rectangle(50, 0, 50, 100),    // zero width, crossing the base
      Rectangle(30, 60, 70, 60),    // zero height, on the base's top edge
      Rectangle(60, 60, 60, 60),    // a point on the base's corner
      Rectangle(61, 61, 61, 61),    // a point just outside it
      Rectangle(-inf, -inf, inf, inf),
      Rectangle(),                  // empty
      Rectangle::Empty(),
  };
  RectGenerator gen(Rectangle(0, 0, 100, 100), 77);
  for (int i = 0; i < 150; ++i) rects.push_back(gen.NextRect(0.5, 30));
  const int64_t total = static_cast<int64_t>(rects.size());

  for (int64_t first : {int64_t{0}, int64_t{1}, int64_t{5}}) {
    for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{63},
                      int64_t{64}, int64_t{65}, int64_t{127}, int64_t{128},
                      int64_t{129}, total - first}) {
      const ExactPlanes planes(rects, first + n);
      const int64_t words = MaskWords(n);
      for (const auto& op : ops) {
        for (const Rectangle& probe : rects) {
          for (bool probe_is_left : {true, false}) {
            // One guard word past the mask must stay untouched.
            std::vector<uint64_t> out(static_cast<size_t>(words + 1),
                                      ~uint64_t{0});
            op->ThetaUpperBatch(probe, probe_is_left,
                                planes.view().SubPlanes(first), n,
                                out.data());
            const std::string where =
                op->name() + (probe_is_left ? " left " : " right ") +
                probe.ToString() + " first " + std::to_string(first) +
                " n " + std::to_string(n);
            for (int64_t i = 0; i < words * 64; ++i) {
              const bool got = ((out[static_cast<size_t>(i / 64)] >>
                                 (i % 64)) & 1) != 0;
              if (i >= n) {
                ASSERT_FALSE(got) << where << ": bit " << i << " past n";
                continue;
              }
              const Rectangle& other = rects[static_cast<size_t>(first + i)];
              const bool want = probe_is_left ? op->ThetaUpper(probe, other)
                                              : op->ThetaUpper(other, probe);
              ASSERT_EQ(got, want) << where << ": bit " << i << " vs "
                                   << other.ToString();
            }
            ASSERT_EQ(out[static_cast<size_t>(words)], ~uint64_t{0})
                << where << ": wrote past MaskWords(n)";
          }
        }
        // An empty probe passes nothing.
        for (bool probe_is_left : {true, false}) {
          std::vector<uint64_t> out(static_cast<size_t>(words), ~uint64_t{0});
          op->ThetaUpperBatch(Rectangle::Empty(), probe_is_left,
                              planes.view().SubPlanes(first), n, out.data());
          for (uint64_t word : out) ASSERT_EQ(word, 0u) << op->name();
        }
      }

      // The decorator counts a batch once per element.
      CountingTheta counting(&counted_overlaps);
      std::vector<uint64_t> out(static_cast<size_t>(words));
      counting.ThetaUpperBatch(rects[0], true,
                               planes.view().SubPlanes(first), n, out.data());
      EXPECT_EQ(counting.theta_upper_count(), n);
      EXPECT_EQ(counting.theta_count(), 0);
    }
  }
}

// The defining Table-1 property: θ(a, b) on the objects implies Θ on any
// rectangles enclosing them. Verified for every operator over random
// geometry pairs and random enclosing rectangles.
class ThetaImplicationTest
    : public ::testing::TestWithParam<int> {};

TEST_P(ThetaImplicationTest, ThetaImpliesThetaUpper) {
  std::vector<std::unique_ptr<ThetaOperator>> ops;
  ops.push_back(std::make_unique<WithinDistanceOp>(15.0));
  ops.push_back(std::make_unique<OverlapsOp>());
  ops.push_back(std::make_unique<IncludesOp>());
  ops.push_back(std::make_unique<ContainedInOp>());
  ops.push_back(std::make_unique<NorthwestOfOp>());
  ops.push_back(std::make_unique<ReachableWithinOp>(5.0, 2.0));
  ops.push_back(std::make_unique<AdjacentOp>());
  const ThetaOperator& op = *ops[static_cast<size_t>(GetParam())];

  RectGenerator gen(Rectangle(0, 0, 100, 100), 1000 + GetParam());
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  int theta_true = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // Mix of points, rectangles, and polygons.
    auto random_value = [&]() -> Value {
      switch (rng.NextUint64(3)) {
        case 0:
          return Value(gen.NextPoint());
        case 1:
          return Value(gen.NextRect(0.5, 25));
        default:
          return Value(gen.NextPolygon(0.5, 8, 7));
      }
    };
    Value a = random_value();
    Value b = random_value();
    if (!op.Theta(a, b)) continue;
    ++theta_true;
    // Any enclosing rectangles must Θ-match.
    Rectangle ea = a.Mbr().Expanded(rng.NextDouble(0, 5));
    Rectangle eb = b.Mbr().Expanded(rng.NextDouble(0, 5));
    EXPECT_TRUE(op.ThetaUpper(a.Mbr(), b.Mbr()))
        << op.name() << " a=" << a.ToString() << " b=" << b.ToString();
    EXPECT_TRUE(op.ThetaUpper(ea, eb)) << op.name();
  }
  // The workload must actually exercise matches.
  EXPECT_GT(theta_true, 0) << op.name();
}

INSTANTIATE_TEST_SUITE_P(AllOperators, ThetaImplicationTest,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace spatialjoin
