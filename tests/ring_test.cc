// Differential tests of the pruned ring predicates: RingsIntersect, the
// multi-step refine RingsIntersectMultiStep, and the θ of `overlaps`
// built on them, against a brute-force oracle that tests every edge pair;
// and rectangle values against their polygon form.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/theta_ops.h"
#include "geometry/polygon.h"
#include "geometry/predicates.h"
#include "geometry/rectangle.h"
#include "geometry/ring.h"
#include "geometry/ring_approx.h"
#include "relational/value.h"

namespace spatialjoin {
namespace {

// Point-in-ring the unpruned way: a boundary pass, then ray casting.
bool OracleContainsPoint(const Polygon& ring, const Point& p) {
  if (!ring.BoundingBox().ContainsPoint(p)) return false;
  const std::vector<Point>& pts = ring.ring();
  const size_t n = pts.size();
  for (size_t i = 0; i < n; ++i) {
    if (PointOnSegment(p, pts[i], pts[(i + 1) % n])) return true;
  }
  bool inside = false;
  for (size_t i = 0; i < n; ++i) {
    const Point& a = pts[i];
    const Point& b = pts[(i + 1) % n];
    if ((a.y > p.y) == (b.y > p.y)) continue;
    const double x_at_y = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
    if (x_at_y > p.x) inside = !inside;
  }
  return inside;
}

// The all-pairs intersection test RingsIntersect must agree with: every
// edge pair through SegmentsIntersect, then the two first-vertex
// containment fallbacks.
bool OracleIntersects(const Polygon& a, const Polygon& b) {
  if (!a.BoundingBox().Overlaps(b.BoundingBox())) return false;
  const std::vector<Point>& ra = a.ring();
  const std::vector<Point>& rb = b.ring();
  for (size_t i = 0; i < ra.size(); ++i) {
    for (size_t j = 0; j < rb.size(); ++j) {
      if (SegmentsIntersect(ra[i], ra[(i + 1) % ra.size()], rb[j],
                            rb[(j + 1) % rb.size()])) {
        return true;
      }
    }
  }
  return OracleContainsPoint(a, rb[0]) || OracleContainsPoint(b, ra[0]);
}

// A rectangle as a polygon, corners counter-clockwise from (min_x, min_y),
// spelled out here rather than taken from the code under test.
Polygon CornerRing(const Rectangle& r) {
  return Polygon({{r.min_x(), r.min_y()},
                  {r.max_x(), r.min_y()},
                  {r.max_x(), r.max_y()},
                  {r.min_x(), r.max_y()}});
}

// The ring an areal value stands for.
Polygon RingOf(const Value& v) {
  return v.type() == ValueType::kRectangle ? CornerRing(v.AsRectangle())
                                           : v.AsPolygon();
}

// Tally of one comparison: the pairs compared, how many the oracle says
// intersect (so a test can check it saw both answers), and how many each
// predicate under test disagreed with it.
struct PairTally {
  int64_t pairs = 0;
  int64_t hits = 0;
  std::vector<int64_t> mismatches;
};

using PairPredicate = std::function<bool(size_t, size_t)>;

// Compares each predicate of `got` with `want(i, j)` over every ordered
// pair of a pool of `n` shapes, reporting the first few disagreements.
PairTally CompareAllPairs(size_t n, const std::vector<PairPredicate>& got,
                          const PairPredicate& want,
                          const std::function<std::string(size_t)>& show) {
  PairTally tally;
  tally.mismatches.assign(got.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const bool expected = want(i, j);
      ++tally.pairs;
      tally.hits += expected ? 1 : 0;
      for (size_t k = 0; k < got.size(); ++k) {
        if (got[k](i, j) == expected) continue;
        if (++tally.mismatches[k] <= 5) {
          ADD_FAILURE() << "predicate " << k << ", pair " << i << "," << j
                        << ": oracle says " << expected << "\n  " << show(i)
                        << "\n  " << show(j);
        }
      }
    }
  }
  return tally;
}

// How many pairs each RefineRule decided, indexed by the rule.
using RuleTally = std::array<int64_t, 4>;

int64_t& Decided(RuleTally* tally, RefineRule rule) {
  return (*tally)[static_cast<size_t>(rule)];
}

// RingsIntersect and the multi-step refine, on records built from the
// pool, against the oracle over every ordered pair; *rules (if given)
// counts the rule that decided each pair.
PairTally ComparePolygonPool(const std::vector<Polygon>& pool,
                             RuleTally* rules = nullptr) {
  std::vector<RingApprox> approx;
  for (const Polygon& ring : pool) {
    approx.push_back(BuildRingApprox(ring.ring_view()));
  }
  RuleTally ignored{};
  RuleTally* tally = rules != nullptr ? rules : &ignored;
  return CompareAllPairs(
      pool.size(),
      {[&](size_t i, size_t j) {
         return RingsIntersect(pool[i].ring_view(), pool[j].ring_view());
       },
       [&](size_t i, size_t j) {
         ++Decided(tally, DecidingRule(pool[i].ring_view(), approx[i],
                                       pool[j].ring_view(), approx[j]));
         return RingsIntersectMultiStep(pool[i].ring_view(), approx[i],
                                        pool[j].ring_view(), approx[j]);
       }},
      [&](size_t i, size_t j) { return OracleIntersects(pool[i], pool[j]); },
      [&](size_t i) { return pool[i].ToString(); });
}

// A point of the small integer grid [0, 8]², where every predicate's
// arithmetic is exact.
Point GridPoint(Rng* rng) {
  return Point(static_cast<double>(rng->NextUint64(9)),
               static_cast<double>(rng->NextUint64(9)));
}

// Small-integer-grid rings: random rings (self-crossing allowed, with
// repeated vertices for zero-length edges), rectangle-derived rings
// (including zero-width ones), nested rings and rings with collinear
// extra vertices. Every pair of the pool, including each ring with
// itself, is compared.
std::vector<Polygon> GridPool(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Polygon> pool;
  // Nested squares with a collinear midpoint on every edge.
  for (int k = 0; k < 4; ++k) {
    const double lo = k;
    const double hi = 8 - k;
    const double mid = 4;
    pool.emplace_back(std::vector<Point>{{lo, lo},
                                         {mid, lo},
                                         {hi, lo},
                                         {hi, mid},
                                         {hi, hi},
                                         {mid, hi},
                                         {lo, hi},
                                         {lo, mid}});
  }
  while (pool.size() < count) {
    switch (rng.NextUint64(3)) {
      case 0: {  // rectangle-derived, possibly of zero width or height
        const Point a = GridPoint(&rng);
        const Point b = GridPoint(&rng);
        pool.push_back(Polygon::FromRectangle(
            Rectangle(std::min(a.x, b.x), std::min(a.y, b.y),
                      std::max(a.x, b.x), std::max(a.y, b.y))));
        break;
      }
      default: {  // random ring, sometimes with a repeated vertex
        std::vector<Point> ring;
        const size_t n = 3 + rng.NextUint64(8);
        for (size_t i = 0; i < n; ++i) ring.push_back(GridPoint(&rng));
        if (rng.NextUint64(4) == 0) {
          const size_t at = rng.NextUint64(n);
          ring.insert(ring.begin() + static_cast<std::ptrdiff_t>(at),
                      ring[at]);
        }
        pool.emplace_back(std::move(ring));
        break;
      }
    }
  }
  return pool;
}

// GridPool's rings with every coordinate moved, with probability 1/2, by
// a multiple of 2e-13 in [-8e-13, 8e-13]: contacts that are exact on
// the grid become contacts within the predicates' tolerance, often just
// outside the other edge's box, which only the boxes' ε growth keeps.
std::vector<Polygon> JitteredGridPool(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Polygon> pool;
  for (const Polygon& ring : GridPool(seed, count)) {
    std::vector<Point> moved = ring.ring();
    for (Point& p : moved) {
      for (double* coord : {&p.x, &p.y}) {
        if (rng.NextUint64(2) == 0) continue;
        *coord += 2e-13 * (static_cast<double>(rng.NextUint64(9)) - 4);
      }
    }
    pool.emplace_back(std::move(moved));
  }
  return pool;
}

// A star-shaped ring around `center` (the benchmark's polygon shape).
Polygon StarRing(Rng* rng, const Point& center, double min_radius,
                 double max_radius, int vertices) {
  std::vector<Point> ring;
  for (int i = 0; i < vertices; ++i) {
    const double angle = 2.0 * M_PI * i / vertices;
    const double radius = rng->NextDouble(min_radius, max_radius);
    ring.emplace_back(center.x + radius * std::cos(angle),
                      center.y + radius * std::sin(angle));
  }
  return Polygon(std::move(ring));
}

// Random float star rings centered in a `world`² square, a quarter of
// them with their vertices snapped to multiples of 0.1 (not exact in
// binary), which makes nearly collinear and nearly touching edges common.
std::vector<Polygon> StarPool(uint64_t seed, size_t count, int min_vertices,
                              int max_vertices, double max_radius,
                              double world) {
  Rng rng(seed);
  std::vector<Polygon> pool;
  while (pool.size() < count) {
    const Point center(rng.NextDouble(0, world), rng.NextDouble(0, world));
    const int vertices =
        min_vertices +
        static_cast<int>(rng.NextUint64(
            static_cast<uint64_t>(max_vertices - min_vertices + 1)));
    Polygon star =
        StarRing(&rng, center, max_radius / 8, max_radius, vertices);
    if (rng.NextUint64(4) == 0) {
      std::vector<Point> snapped = star.ring();
      for (Point& p : snapped) {
        p = Point(std::round(p.x * 10) / 10, std::round(p.y * 10) / 10);
      }
      star = Polygon(std::move(snapped));
    }
    pool.push_back(std::move(star));
  }
  return pool;
}

TEST(RingRegressionTest, NearlyCollinearRingsOneUnitApartAreDisjoint) {
  // A's bottom edge is within the tolerance of collinear with B's edge
  // (-1,0)-(1,0) but lies one unit beyond its end.
  const Polygon a({{2, 4e-13}, {12, 2.4e-12}, {12, 5}, {2, 5}});
  const Polygon b({{-1, 0},
                   {1, 0},
                   {1, -1},
                   {29, -1},
                   {29, 10},
                   {30, 10},
                   {30, -2},
                   {-1, -2}});
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_FALSE(b.Intersects(a));
  EXPECT_FALSE(OracleIntersects(a, b));
  EXPECT_FALSE(OverlapsOp().Theta(Value(a), Value(b)));
  EXPECT_NEAR(a.DistanceToPolygon(b), 1.0, 1e-9);
  EXPECT_NEAR(b.DistanceToPolygon(a), 1.0, 1e-9);
}

// Floors on the share of pairs each multi-step rule settles in a star
// pool, so that the oracle tests above cannot pass with the cascade
// switched off (every pair falling through to RingsIntersect).
void ExpectEveryRuleDecides(const RuleTally& rules, const char* pool) {
  int64_t pairs = 0;
  for (int64_t count : rules) pairs += count;
  // Each rule, RingsIntersect included, decides at least one pair in a
  // hundred (the least is about one in fifty).
  for (int64_t count : rules) EXPECT_GE(count * 100, pairs) << pool;
}

TEST(RingOracleTest, GridRingsMatchBruteForce) {
  const std::vector<Polygon> pool = GridPool(101, 820);
  const PairTally tally = ComparePolygonPool(pool);
  EXPECT_EQ(tally.mismatches, (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(tally.pairs, 820 * 820);
  // Both answers are well represented.
  EXPECT_GT(tally.hits, tally.pairs / 10);
  EXPECT_LT(tally.hits, tally.pairs * 9 / 10);
}

TEST(RingOracleTest, JitteredGridRingsMatchBruteForce) {
  const std::vector<Polygon> pool = JitteredGridPool(151, 600);
  const PairTally tally = ComparePolygonPool(pool);
  EXPECT_EQ(tally.mismatches, (std::vector<int64_t>{0, 0}));
  EXPECT_GT(tally.hits, tally.pairs / 10);
  EXPECT_LT(tally.hits, tally.pairs * 9 / 10);
}

TEST(RingOracleTest, FloatStarRingsMatchBruteForce) {
  const std::vector<Polygon> pool = StarPool(202, 600, 5, 24, 20.0, 100.0);
  RuleTally rules{};
  const PairTally tally = ComparePolygonPool(pool, &rules);
  EXPECT_EQ(tally.mismatches, (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(tally.pairs, 600 * 600);
  EXPECT_GT(tally.hits, 1000);
  ExpectEveryRuleDecides(rules, "float stars");
}

TEST(RingOracleTest, LongRingsMatchBruteForce) {
  // 40-120 vertices on large, heavily overlapping rings, so more edges
  // reach the MBR intersection than RingsIntersect buffers per pass.
  const std::vector<Polygon> pool = StarPool(303, 100, 40, 120, 45.0, 100.0);
  RuleTally rules{};
  const PairTally tally = ComparePolygonPool(pool, &rules);
  EXPECT_EQ(tally.mismatches, (std::vector<int64_t>{0, 0}));
  ExpectEveryRuleDecides(rules, "long rings");
  EXPECT_GT(tally.hits, tally.pairs / 4);
  // Rings nested with no boundary contact: only the containment
  // fallback can answer.
  const Polygon outer = Polygon::RegularNGon(Point(0, 0), 10, 100);
  const Polygon inner = Polygon::RegularNGon(Point(0.5, 0), 3, 90);
  EXPECT_TRUE(RingsIntersect(outer.ring_view(), inner.ring_view()));
  EXPECT_TRUE(RingsIntersect(inner.ring_view(), outer.ring_view()));
  EXPECT_TRUE(OracleIntersects(outer, inner));
}

// The shapes the Value-level tests draw from: grid and float rectangles
// and polygons, all in or near the grid's [0, 8]² square.
std::vector<Value> ArealValues(uint64_t seed) {
  std::vector<Value> values;
  Rng rng(seed);
  for (const Polygon& p : GridPool(seed, 160)) values.emplace_back(p);
  for (const Polygon& p : StarPool(seed + 1, 160, 5, 20, 4.0, 12.0)) {
    values.emplace_back(p);
  }
  for (int i = 0; i < 160; ++i) {
    const Point a = GridPoint(&rng);
    const Point b = GridPoint(&rng);
    values.emplace_back(Rectangle(std::min(a.x, b.x), std::min(a.y, b.y),
                                  std::max(a.x, b.x), std::max(a.y, b.y)));
  }
  for (int i = 0; i < 160; ++i) {
    const double x = rng.NextDouble(-2, 12);
    const double y = rng.NextDouble(-2, 12);
    values.emplace_back(Rectangle(x, y, x + rng.NextDouble(0, 5),
                                  y + rng.NextDouble(0, 5)));
  }
  return values;
}

TEST(RingOracleTest, OverlapsThetaMatchesOracleForEveryArealPair) {
  const std::vector<Value> values = ArealValues(404);
  // θ with records, as the FrozenTree join calls it: a polygon carries
  // its record, a rectangle none.
  std::vector<RingApprox> approx(values.size());
  std::vector<const RingApprox*> record(values.size(), nullptr);
  for (size_t i = 0; i < values.size(); ++i) {
    if (const Polygon* polygon = values[i].TryPolygon()) {
      approx[i] = BuildRingApprox(polygon->ring_view());
      record[i] = &approx[i];
    }
  }
  const OverlapsOp op;
  int64_t kinds[2][2] = {{0, 0}, {0, 0}};
  const PairTally tally = CompareAllPairs(
      values.size(),
      {[&](size_t i, size_t j) {
         ++kinds[values[i].type() == ValueType::kPolygon]
                [values[j].type() == ValueType::kPolygon];
         return op.Theta(values[i], values[j]);
       },
       [&](size_t i, size_t j) {
         return op.Theta(values[i], record[i], values[j], record[j]);
       }},
      [&](size_t i, size_t j) {
        return OracleIntersects(RingOf(values[i]), RingOf(values[j]));
      },
      [&](size_t i) { return values[i].ToString(); });
  EXPECT_EQ(tally.mismatches, (std::vector<int64_t>{0, 0}));
  EXPECT_GT(tally.hits, tally.pairs / 20);
  for (const auto& row : kinds) {
    for (int64_t count : row) EXPECT_GT(count, 10000);
  }
}

TEST(RingOracleTest, RectangleValueActsAsItsPolygon) {
  const std::vector<Value> values = ArealValues(505);
  std::vector<Rectangle> rects;
  std::vector<Value> polygons;
  for (const Value& v : values) {
    if (v.type() == ValueType::kRectangle) {
      rects.push_back(v.AsRectangle());
    } else {
      polygons.push_back(v);
    }
  }
  for (const Rectangle& r : rects) {
    ASSERT_EQ(Polygon::FromRectangle(r).ring(), CornerRing(r).ring());
  }
  std::vector<std::unique_ptr<ThetaOperator>> ops;
  ops.push_back(std::make_unique<IncludesOp>());
  ops.push_back(std::make_unique<ContainedInOp>());
  ops.push_back(std::make_unique<AdjacentOp>());
  ops.push_back(std::make_unique<ReachableWithinOp>(1.5, 1.0));
  for (const auto& op : ops) {
    int64_t mismatches = 0;
    int64_t hits = 0;
    for (const Rectangle& r : rects) {
      const Value rect(r);
      const Value as_polygon(CornerRing(r));
      for (const Value& poly : polygons) {
        const bool forward = op->Theta(as_polygon, poly);
        const bool backward = op->Theta(poly, as_polygon);
        hits += (forward ? 1 : 0) + (backward ? 1 : 0);
        if (op->Theta(rect, poly) != forward ||
            op->Theta(poly, rect) != backward) {
          if (++mismatches <= 5) {
            ADD_FAILURE() << op->name() << " differs for " << r.ToString()
                          << " and " << poly.ToString();
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << op->name();
    EXPECT_GT(hits, 100) << op->name();
  }
}

// ---------------------------------------------------------------------------
// The multi-step refine at the edge of each rule
// ---------------------------------------------------------------------------

// Checks the multi-step answer for (a, b) and (b, a) against
// RingsIntersect and the oracle, and returns the rule that decided (a, b).
RefineRule ExpectExactAnswer(const Polygon& a, const Polygon& b) {
  const RingApprox approx_a = BuildRingApprox(a.ring_view());
  const RingApprox approx_b = BuildRingApprox(b.ring_view());
  const bool want = OracleIntersects(a, b);
  EXPECT_EQ(RingsIntersect(a.ring_view(), b.ring_view()), want);
  EXPECT_EQ(RingsIntersectMultiStep(a.ring_view(), approx_a, b.ring_view(),
                                    approx_b),
            want)
      << a.ToString() << "\n" << b.ToString();
  EXPECT_EQ(RingsIntersectMultiStep(b.ring_view(), approx_b, a.ring_view(),
                                    approx_a),
            want)
      << b.ToString() << "\n" << a.ToString();
  return DecidingRule(a.ring_view(), approx_a, b.ring_view(), approx_b);
}

// `ring` moved by (dx, dy).
Polygon Moved(const Polygon& ring, double dx, double dy) {
  std::vector<Point> moved = ring.ring();
  for (Point& p : moved) p = Point(p.x + dx, p.y + dy);
  return Polygon(std::move(moved));
}

TEST(RingApproxTest, OctagonsTouchingAlongA45DegreeLine) {
  // Two triangles sharing the hypotenuse x + y = 4: the octagons' gap
  // along x + y is 0, inside the margins, so RingsIntersect decides.
  const Polygon lower({{0, 0}, {4, 0}, {0, 4}});
  const Polygon upper({{4, 0}, {4, 4}, {0, 4}});
  EXPECT_EQ(ExpectExactAnswer(lower, upper), RefineRule::kExact);
  EXPECT_TRUE(OracleIntersects(lower, upper));
  // Within 1e-13 of touching, either way: ε-contact, still inside the
  // margins.
  for (double shift : {1e-13, -1e-13}) {
    const Polygon near = Moved(upper, shift, 0);
    EXPECT_NE(ExpectExactAnswer(lower, near), RefineRule::kOctagonsApart)
        << shift;
    EXPECT_TRUE(OracleIntersects(lower, near)) << shift;
  }
  // Far beyond the margins the octagons decide, and the rings are apart.
  const Polygon apart = Moved(upper, 1e-6, 0);
  EXPECT_EQ(ExpectExactAnswer(lower, apart), RefineRule::kOctagonsApart);
  EXPECT_FALSE(OracleIntersects(lower, apart));
}

TEST(RingApproxTest, ShortEdgesWidenTheMargin) {
  // (0, 0.9e-6) is 6.4e-7 from the edge (0, 0)-(1e-6, 1e-6), yet within
  // the tolerance of its orientation test (cross product 9e-13 < ε) and
  // inside its box: SegmentsIntersect calls them touching. The octagons
  // are 0.9e-6 apart along x − y, so only a margin that grows as edges
  // shorten (4·ε / 1e-6 here) keeps the octagon rule from deciding.
  const Polygon tiny({{0, 0}, {1e-6, 1e-6}, {1e-6, 0}});
  const Polygon big({{0, 0.9e-6}, {0, 1}, {-1, 0.9e-6}});
  EXPECT_TRUE(OracleIntersects(tiny, big));
  EXPECT_GT(BuildRingApprox(tiny.ring_view()).margin, 1e-6);
  EXPECT_EQ(ExpectExactAnswer(tiny, big), RefineRule::kExact);
}

TEST(RingApproxTest, VertexOnTheShrunkDisk) {
  // The square's disk: centre (5, 5), radius 5 less the margin. A thin
  // wedge points at the centre from the right; its own disk is far off
  // and its octagon overlaps the square's, so only the vertex rule can
  // settle the pair.
  const Polygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const RingApprox disk = BuildRingApprox(square.ring_view());
  ASSERT_EQ(disk.center, Point(5, 5));
  ASSERT_GT(disk.radius, 5 - 1e-7);
  ASSERT_LT(disk.radius, 5.0);
  // The largest x whose point (x, 5) the rule counts in the disk: on its
  // boundary, as the rule's arithmetic sees it.
  double on = 5 + disk.radius;
  while ((on - 5) * (on - 5) > disk.radius * disk.radius) {
    on = std::nextafter(on, 0.0);
  }
  while ((std::nextafter(on, 20.0) - 5) * (std::nextafter(on, 20.0) - 5) <=
         disk.radius * disk.radius) {
    on = std::nextafter(on, 20.0);
  }
  auto wedge = [](double tip) {
    return Polygon({{tip, 5}, {30, 4}, {30, 6}});
  };
  EXPECT_EQ(ExpectExactAnswer(square, wedge(on)), RefineRule::kVertexInDisk);
  EXPECT_EQ(ExpectExactAnswer(wedge(on), square), RefineRule::kVertexInDisk);
  EXPECT_EQ(ExpectExactAnswer(square, wedge(on - 1e-9)),
            RefineRule::kVertexInDisk);
  // Just outside the disk the vertex rule does not fire; the tip is still
  // inside the square, which RingsIntersect finds.
  EXPECT_EQ(ExpectExactAnswer(square, wedge(std::nextafter(on, 20.0))),
            RefineRule::kExact);
  EXPECT_TRUE(OracleIntersects(square, wedge(std::nextafter(on, 20.0))));
}

TEST(RingApproxTest, CrescentAndSymmetricBowTieGetNoDisk) {
  // A crescent opening to +x: its vertex mean lies in the hollow.
  std::vector<Point> arc;
  for (int deg = 60; deg <= 300; deg += 20) {
    arc.emplace_back(10 * std::cos(deg * M_PI / 180),
                     10 * std::sin(deg * M_PI / 180));
  }
  for (int deg = 300; deg >= 60; deg -= 20) {
    arc.emplace_back(7 * std::cos(deg * M_PI / 180),
                     7 * std::sin(deg * M_PI / 180));
  }
  const Polygon crescent(arc);
  const RingApprox approx = BuildRingApprox(crescent.ring_view());
  EXPECT_FALSE(RingContainsPoint(crescent.ring_view(), approx.center));
  EXPECT_EQ(approx.radius, 0.0);
  // A square in the hollow around the mean: disjoint, and no rule can say
  // so (the octagons overlap; neither disk holds a vertex of the other).
  const Point c = approx.center;
  const Polygon in_hollow(
      {{c.x - 1, c.y - 1}, {c.x + 1, c.y - 1}, {c.x + 1, c.y + 1},
       {c.x - 1, c.y + 1}});
  EXPECT_EQ(ExpectExactAnswer(crescent, in_hollow), RefineRule::kExact);
  EXPECT_FALSE(OracleIntersects(crescent, in_hollow));
  // A symmetric bow-tie's vertex mean is its crossing point, on the ring.
  const Polygon bow_tie({{0, 0}, {4, 4}, {4, 0}, {0, 4}});
  EXPECT_EQ(BuildRingApprox(bow_tie.ring_view()).radius, 0.0);
}

TEST(RingApproxTest, LopsidedBowTieDiskLiesInItsLobe) {
  // Self-crossing at about (2.86, 1.43); the vertex mean (5, 1.75) is in
  // the right lobe, which the even-odd rule counts as inside.
  const Polygon bow_tie({{0, 0}, {10, 5}, {10, 0}, {0, 2}});
  const RingApprox approx = BuildRingApprox(bow_tie.ring_view());
  ASSERT_GT(approx.radius, 0.5);
  for (int k = 0; k < 64; ++k) {
    const double angle = 2 * M_PI * k / 64;
    const Point rim(approx.center.x + approx.radius * std::cos(angle),
                    approx.center.y + approx.radius * std::sin(angle));
    EXPECT_TRUE(RingContainsPoint(bow_tie.ring_view(), rim)) << k;
  }
  const std::vector<Polygon> partners = {
      Polygon({{4.5, 1.5}, {5.5, 1.5}, {5.5, 2.0}}),       // in the disk
      Polygon({{0.5, 0.8}, {1.5, 0.8}, {1.0, 1.2}}),       // left lobe
      Polygon({{2.5, 1.3}, {3.2, 1.3}, {3.2, 1.6}}),       // the crossing
      Polygon({{0.5, 3.0}, {2.0, 3.0}, {2.0, 4.0}}),       // outside
      Polygon({{-1, -1}, {12, -1}, {12, 7}, {-1, 7}}),     // around it
  };
  for (const Polygon& partner : partners) ExpectExactAnswer(bow_tie, partner);
  EXPECT_EQ(ExpectExactAnswer(bow_tie, partners[0]),
            RefineRule::kDisksOverlap);
}

TEST(RingApproxTest, RepeatedVerticesAndZeroAreaRings) {
  const Polygon repeated({{0, 0}, {0, 0}, {4, 0}, {4, 4}, {4, 4}, {0, 4}});
  const Polygon segment({{0, 0}, {2, 2}, {4, 4}});  // zero area
  const Polygon point({{1, 1}, {1, 1}, {1, 1}});
  const RingApprox square_approx = BuildRingApprox(repeated.ring_view());
  EXPECT_EQ(square_approx.center, Point(2, 2));
  EXPECT_GT(square_approx.radius, 2 - 1e-7);
  EXPECT_EQ(BuildRingApprox(segment.ring_view()).radius, 0.0);
  const RingApprox point_approx = BuildRingApprox(point.ring_view());
  EXPECT_EQ(point_approx.radius, 0.0);
  EXPECT_TRUE(point_approx.built());
  // Each against each other and against rings touching or crossing the
  // degenerate ones.
  const std::vector<Polygon> pool = {
      repeated,
      segment,
      point,
      Polygon({{2, 0}, {4, 0}, {4, 2}}),         // apart from the segment
      Polygon({{3, 3}, {6, 3}, {6, 6}, {3, 6}}),  // around its end
      Polygon({{4, 4}, {5, 4}, {5, 5}}),         // at its end vertex
      Polygon({{1, 1}, {3, 1}, {3, 3}}),         // through the point
      Moved(segment, 1e-13, 0),
      Moved(point, 0, 5),
  };
  for (const Polygon& a : pool) {
    for (const Polygon& b : pool) ExpectExactAnswer(a, b);
  }
}

TEST(RingApproxTest, ThetaUsesRecordsOnlyForTwoPolygons) {
  const Polygon diamond({{2, 0}, {4, 2}, {2, 4}, {0, 2}});
  const RingApprox approx = BuildRingApprox(diamond.ring_view());
  const OverlapsOp overlaps;
  const IncludesOp includes_op;
  // The overload is reached through the base, as the kernel calls it.
  const ThetaOperator& includes = includes_op;
  // Rectangles get no record: a pair with one takes the exact path.
  for (const Rectangle& r : {Rectangle(3, 3, 5, 5), Rectangle(3.5, 3.5, 5, 5),
                             Rectangle(1, 1, 3, 3)}) {
    const Value rect(r);
    EXPECT_EQ(overlaps.Theta(rect, nullptr, Value(diamond), &approx),
              overlaps.Theta(rect, Value(diamond)))
        << r.ToString();
    EXPECT_EQ(overlaps.Theta(Value(diamond), &approx, rect, nullptr),
              overlaps.Theta(Value(diamond), rect))
        << r.ToString();
  }
  // Operators without an override ignore the records.
  const Polygon inner({{1.5, 1.5}, {2.5, 1.5}, {2.5, 2.5}, {1.5, 2.5}});
  const RingApprox inner_approx = BuildRingApprox(inner.ring_view());
  EXPECT_TRUE(includes.Theta(Value(diamond), &approx, Value(inner),
                             &inner_approx));
  EXPECT_FALSE(includes.Theta(Value(inner), &inner_approx, Value(diamond),
                              &approx));
}

}  // namespace
}  // namespace spatialjoin
