#include "core/theta_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "common/thread_annotations.h"
#include "geometry/buffer.h"
#include "geometry/distance.h"
#include "geometry/polygon.h"
#include "geometry/polyline.h"
#include "geometry/predicates.h"
#include "geometry/ring.h"
#include "geometry/ring_approx.h"

namespace spatialjoin {

namespace {

bool IsPoint(const Value& v) { return v.type() == ValueType::kPoint; }

bool IsPolyline(const Value& v) {
  return v.type() == ValueType::kPolyline;
}

// The boundary of an areal value (rectangle or polygon) as a ring view: a
// polygon lends its own ring, a rectangle's corners are held here. Not
// copyable, since the view may point into this object.
class ArealRing {
 public:
  explicit ArealRing(const Value& v) {
    if (const Polygon* polygon = v.TryPolygon()) {
      view_ = polygon->ring_view();
      return;
    }
    const Rectangle* rect = v.TryRectangle();
    SJ_CHECK(rect != nullptr);
    view_ = RectangleRing(*rect, corners_);
  }
  ArealRing(const ArealRing&) = delete;
  ArealRing& operator=(const ArealRing&) = delete;

  const RingView& view() const { return view_; }

 private:
  Point corners_[4];
  RingView view_;
};

// θ of `overlaps` on two areal values. Rectangle pairs are decided by
// closed overlap; any pair involving a polygon by the pruned ring test on
// borrowed views, so no geometry is copied.
SJ_HOT bool ArealsOverlap(const Value& a, const Value& b) {
  const Rectangle* rect_a = a.TryRectangle();
  const Rectangle* rect_b = b.TryRectangle();
  if (rect_a != nullptr && rect_b != nullptr) return rect_a->Overlaps(*rect_b);
  const ArealRing ring_a(a);
  const ArealRing ring_b(b);
  return RingsIntersect(ring_a.view(), ring_b.view());
}

// True iff `p` lies on the boundary of `ring`.
bool PointOnAnyEdge(const RingView& ring, const Point& p) {
  for (size_t i = 0; i < ring.size; ++i) {
    if (PointOnSegment(p, ring.points[i],
                       ring.points[(i + 1) % ring.size])) {
      return true;
    }
  }
  return false;
}

// Minimum distance between a polyline and an areal value's ring: 0 when
// a vertex is inside or an edge crosses the boundary, otherwise the
// closest edge pair.
double PolylineArealDistance(const Polyline& line, const RingView& area) {
  for (const Point& p : line.vertices()) {
    if (RingContainsPoint(area, p)) return 0.0;
  }
  double best = std::numeric_limits<double>::infinity();
  const auto& vs = line.vertices();
  for (size_t i = 0; i + 1 < vs.size(); ++i) {
    for (size_t j = 0; j < area.size; ++j) {
      best = std::min(best, DistanceSegmentSegment(
                                vs[i], vs[i + 1], area.points[j],
                                area.points[(j + 1) % area.size]));
      if (best == 0.0) return 0.0;
    }
  }
  return best;
}

}  // namespace

Point CenterpointOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kPoint:
      return v.AsPoint();
    case ValueType::kRectangle:
      return v.AsRectangle().Center();
    case ValueType::kPolygon:
      return v.AsPolygon().Centroid();
    case ValueType::kPolyline:
      // The arc-length midpoint — the natural centerpoint of a curve.
      return v.AsPolyline().Midpoint();
    default:
      SJ_CHECK_MSG(false, "CenterpointOf on non-spatial " << v.ToString());
  }
  return Point();
}

double MinDistanceBetween(const Value& a, const Value& b) {
  if (IsPolyline(a)) {
    const Polyline& line = a.AsPolyline();
    if (IsPoint(b)) return line.DistanceToPoint(b.AsPoint());
    if (IsPolyline(b)) return line.DistanceToPolyline(b.AsPolyline());
    return PolylineArealDistance(line, ArealRing(b).view());
  }
  if (IsPolyline(b)) return MinDistanceBetween(b, a);
  if (IsPoint(a) && IsPoint(b)) return Distance(a.AsPoint(), b.AsPoint());
  if (IsPoint(a)) {
    if (b.type() == ValueType::kRectangle) {
      return b.AsRectangle().MinDistanceToPoint(a.AsPoint());
    }
    return b.AsPolygon().DistanceToPoint(a.AsPoint());
  }
  if (IsPoint(b)) return MinDistanceBetween(b, a);
  if (a.type() == ValueType::kRectangle &&
      b.type() == ValueType::kRectangle) {
    return a.AsRectangle().MinDistance(b.AsRectangle());
  }
  return RingDistance(ArealRing(a).view(), ArealRing(b).view());
}

bool GeometriesOverlap(const Value& a, const Value& b) {
  const ValueType type_a = a.type();
  const ValueType type_b = b.type();
  if (type_a == ValueType::kPolyline || type_b == ValueType::kPolyline) {
    return MinDistanceBetween(a, b) == 0.0;
  }
  if (type_a == ValueType::kPoint && type_b == ValueType::kPoint) {
    return a.AsPoint() == b.AsPoint();
  }
  if (type_a == ValueType::kPoint) {
    if (type_b == ValueType::kRectangle) {
      return b.AsRectangle().ContainsPoint(a.AsPoint());
    }
    return b.AsPolygon().ContainsPoint(a.AsPoint());
  }
  if (type_b == ValueType::kPoint) return GeometriesOverlap(b, a);
  return ArealsOverlap(a, b);
}

bool GeometryContains(const Value& a, const Value& b) {
  if (IsPolyline(a)) {
    // A curve has no interior: it contains exactly the points on it and
    // itself.
    if (IsPoint(b)) return a.AsPolyline().DistanceToPoint(b.AsPoint()) == 0.0;
    return IsPolyline(b) &&
           a.AsPolyline().vertices() == b.AsPolyline().vertices();
  }
  if (IsPolyline(b)) {
    if (IsPoint(a)) return false;
    // An areal value contains a curve iff it contains every vertex and
    // no edge escapes (convexity not assumed: check edge crossings too).
    const Polyline& line = b.AsPolyline();
    const ArealRing area(a);
    const RingView& ring = area.view();
    for (const Point& p : line.vertices()) {
      if (!RingContainsPoint(ring, p)) return false;
    }
    // Vertices inside + distance-0 boundary contact is still inside for
    // closed regions; a proper escape requires a vertex outside, which
    // simple (convex or monotone) areas guarantee. For concave areas we
    // additionally reject edges that properly cross the boundary.
    const auto& vs = line.vertices();
    for (size_t i = 0; i + 1 < vs.size(); ++i) {
      for (size_t j = 0; j < ring.size; ++j) {
        if (SegmentsCrossProperly(ring.points[j],
                                  ring.points[(j + 1) % ring.size], vs[i],
                                  vs[i + 1])) {
          return false;
        }
      }
    }
    return true;
  }
  if (IsPoint(a)) {
    // A point contains only an identical point.
    return IsPoint(b) && a.AsPoint() == b.AsPoint();
  }
  if (a.type() == ValueType::kRectangle) {
    if (IsPoint(b)) return a.AsRectangle().ContainsPoint(b.AsPoint());
    return a.AsRectangle().Contains(b.Mbr());
  }
  // a is a polygon.
  if (IsPoint(b)) return a.AsPolygon().ContainsPoint(b.AsPoint());
  return RingContainsRing(a.AsPolygon().ring_view(), ArealRing(b).view());
}

// --------------------------------------------------------------------------
// ThetaOperator / OverlapThetaUpperOp
// --------------------------------------------------------------------------

bool ThetaOperator::Theta(const Value& a, const RingApprox* approx_a,
                          const Value& b, const RingApprox* approx_b) const {
  (void)approx_a;
  (void)approx_b;
  return Theta(a, b);
}

SJ_HOT void ThetaOperator::ThetaUpperBatch(const Rectangle& probe,
                                           bool probe_is_left,
                                           const MbrPlanes& planes, int64_t n,
                                           uint64_t* out) const {
  std::fill_n(out, MaskWords(n), uint64_t{0});
  for (int64_t i = 0; i < n; ++i) {
    SJ_BOUNDED_WORK;  // one batch: a node's children or one block row
    const Rectangle other = planes.At(i);
    const bool hit = probe_is_left ? ThetaUpper(probe, other)
                                   : ThetaUpper(other, probe);
    out[i / 64] |= static_cast<uint64_t>(hit) << (i % 64);
  }
}

SJ_HOT bool OverlapThetaUpperOp::ThetaUpper(const Rectangle& a,
                                            const Rectangle& b) const {
  return a.Overlaps(b);
}

SJ_HOT void OverlapThetaUpperOp::ThetaUpperBatch(const Rectangle& probe,
                                                 bool probe_is_left,
                                                 const MbrPlanes& planes,
                                                 int64_t n,
                                                 uint64_t* out) const {
#if defined(__SSE2__)
  // Closed overlap is symmetric, so the operand order does not matter.
  (void)probe_is_left;
  // An empty probe overlaps nothing; NaN stands in for its coordinates
  // exactly as it does for an empty element, and every ordered compare
  // with a NaN is false, in the SSE2 lanes as in the scalar tail.
  const double nan = std::nan("");
  const double min_x = probe.is_empty() ? nan : probe.min_x();
  const double min_y = probe.is_empty() ? nan : probe.min_y();
  const double max_x = probe.is_empty() ? nan : probe.max_x();
  const double max_y = probe.is_empty() ? nan : probe.max_y();
  const __m128d probe_min_x = _mm_set1_pd(min_x);
  const __m128d probe_min_y = _mm_set1_pd(min_y);
  const __m128d probe_max_x = _mm_set1_pd(max_x);
  const __m128d probe_max_y = _mm_set1_pd(max_y);
  const double* lo_x = planes.min_x;
  const double* lo_y = planes.min_y;
  const double* hi_x = planes.max_x;
  const double* hi_y = planes.max_y;
  for (int64_t base = 0; base < n; base += 64) {
    SJ_BOUNDED_WORK;  // one batch's words: a node's children or a block row
    const int64_t end = std::min<int64_t>(n, base + 64);
    uint64_t bits = 0;
    int64_t i = base;
    // Two elements per step; a word holds 32 steps, so no pair straddles
    // two words.
    for (; i + 2 <= end; i += 2) {
      SJ_BOUNDED_WORK;  // one word: 32 steps at most
      const __m128d hit = _mm_and_pd(
          _mm_and_pd(_mm_cmple_pd(probe_min_x, _mm_loadu_pd(hi_x + i)),
                     _mm_cmple_pd(_mm_loadu_pd(lo_x + i), probe_max_x)),
          _mm_and_pd(_mm_cmple_pd(probe_min_y, _mm_loadu_pd(hi_y + i)),
                     _mm_cmple_pd(_mm_loadu_pd(lo_y + i), probe_max_y)));
      bits |= static_cast<uint64_t>(_mm_movemask_pd(hit)) << (i - base);
    }
    if (i < end) {  // an odd last element: no load may read past it
      const bool hit = (min_x <= hi_x[i]) & (lo_x[i] <= max_x) &
                       (min_y <= hi_y[i]) & (lo_y[i] <= max_y);
      bits |= static_cast<uint64_t>(hit) << (i - base);
    }
    out[base / 64] = bits;
  }
#else
  ThetaOperator::ThetaUpperBatch(probe, probe_is_left, planes, n, out);
#endif
}

// --------------------------------------------------------------------------
// WithinDistanceOp
// --------------------------------------------------------------------------

WithinDistanceOp::WithinDistanceOp(double distance) : distance_(distance) {
  SJ_CHECK_GE(distance, 0.0);
}

std::string WithinDistanceOp::name() const {
  std::ostringstream os;
  os << "within_distance(" << distance_ << ")";
  return os.str();
}

bool WithinDistanceOp::Theta(const Value& a, const Value& b) const {
  return Distance(CenterpointOf(a), CenterpointOf(b)) <= distance_;
}

SJ_HOT bool WithinDistanceOp::ThetaUpper(const Rectangle& a,
                                         const Rectangle& b) const {
  return RectanglesWithinDistance(a, b, distance_);
}

std::optional<Rectangle> WithinDistanceOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  (void)world;
  // Θ(a, b) means minDist(a, b) <= d, so a must reach into the d-buffer.
  return BufferMbr(b, distance_);
}

// --------------------------------------------------------------------------
// OverlapsOp
// --------------------------------------------------------------------------

bool OverlapsOp::Theta(const Value& a, const Value& b) const {
  return GeometriesOverlap(a, b);
}

bool OverlapsOp::Theta(const Value& a, const RingApprox* approx_a,
                       const Value& b, const RingApprox* approx_b) const {
  const Polygon* polygon_a = a.TryPolygon();
  const Polygon* polygon_b = b.TryPolygon();
  if (approx_a == nullptr || approx_b == nullptr || polygon_a == nullptr ||
      polygon_b == nullptr) {
    return GeometriesOverlap(a, b);
  }
  return RingsIntersectMultiStep(polygon_a->ring_view(), *approx_a,
                                 polygon_b->ring_view(), *approx_b);
}

std::optional<Rectangle> OverlapsOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  (void)world;
  return b;
}

// --------------------------------------------------------------------------
// IncludesOp / ContainedInOp
// --------------------------------------------------------------------------

bool IncludesOp::Theta(const Value& a, const Value& b) const {
  return GeometryContains(a, b);
}

std::optional<Rectangle> IncludesOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  (void)world;
  return b;
}

bool ContainedInOp::Theta(const Value& a, const Value& b) const {
  return GeometryContains(b, a);
}

std::optional<Rectangle> ContainedInOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  (void)world;
  return b;
}

// --------------------------------------------------------------------------
// NorthwestOfOp
// --------------------------------------------------------------------------

bool NorthwestOfOp::Theta(const Value& a, const Value& b) const {
  return NorthwestOf(CenterpointOf(a), CenterpointOf(b));
}

SJ_HOT bool NorthwestOfOp::ThetaUpper(const Rectangle& a,
                                      const Rectangle& b) const {
  if (a.is_empty() || b.is_empty()) return false;
  // The NW quadrant of b is bounded by b's right vertical tangent
  // (x = b.max_x) and b's lower horizontal tangent (y = b.min_y).
  // a overlaps it iff some part of a has x <= b.max_x and y >= b.min_y.
  return a.min_x() <= b.max_x() && a.max_y() >= b.min_y();
}

std::optional<Rectangle> NorthwestOfOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  // The NW quadrant clipped to the indexed world. Degenerate if b lies
  // outside the world entirely; callers clip objects to the world.
  if (b.is_empty() || world.is_empty()) return std::nullopt;
  double min_x = std::min(world.min_x(), b.min_x());
  double max_x = b.max_x();
  double min_y = b.min_y();
  double max_y = std::max(world.max_y(), b.max_y());
  return Rectangle(min_x, min_y, max_x, max_y);
}

// --------------------------------------------------------------------------
// AdjacentOp
// --------------------------------------------------------------------------

bool AdjacentOp::Theta(const Value& a, const Value& b) const {
  if (MinDistanceBetween(a, b) != 0.0) return false;
  // Contact without shared interior. For rectangle pairs the shared
  // region's area decides; for other combinations a point or curve can
  // only ever share boundary, so contact alone suffices; polygon pairs
  // approximate interior sharing by the MBR intersection having positive
  // area AND mutual containment of some vertex (conservative for convex
  // shapes, exact for rectangles — the Fig. 1 setting).
  if (a.type() == ValueType::kRectangle &&
      b.type() == ValueType::kRectangle) {
    return a.AsRectangle().Intersection(b.AsRectangle()).Area() == 0.0;
  }
  if (a.type() == ValueType::kPoint || b.type() == ValueType::kPoint ||
      a.type() == ValueType::kPolyline ||
      b.type() == ValueType::kPolyline) {
    return true;
  }
  // Polygon-involved: interiors are shared iff a vertex of one lies
  // strictly inside the other, or their boundaries properly cross.
  const ArealRing area_a(a);
  const ArealRing area_b(b);
  const RingView& ra = area_a.view();
  const RingView& rb = area_b.view();
  for (size_t j = 0; j < rb.size; ++j) {
    const Point& v = rb.points[j];
    if (RingContainsPoint(ra, v) && !PointOnAnyEdge(ra, v)) return false;
  }
  for (size_t i = 0; i < ra.size; ++i) {
    const Point& v = ra.points[i];
    if (RingContainsPoint(rb, v) && !PointOnAnyEdge(rb, v)) return false;
  }
  for (size_t i = 0; i < ra.size; ++i) {
    const Point& a1 = ra.points[i];
    const Point& a2 = ra.points[(i + 1) % ra.size];
    for (size_t j = 0; j < rb.size; ++j) {
      if (SegmentsCrossProperly(a1, a2, rb.points[j],
                                rb.points[(j + 1) % rb.size])) {
        return false;  // proper boundary crossing => shared interior
      }
    }
  }
  return true;
}

std::optional<Rectangle> AdjacentOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  (void)world;
  return b;
}

// --------------------------------------------------------------------------
// ReachableWithinOp
// --------------------------------------------------------------------------

ReachableWithinOp::ReachableWithinOp(double minutes, double speed_per_minute)
    : minutes_(minutes), speed_per_minute_(speed_per_minute) {
  SJ_CHECK_GE(minutes, 0.0);
  SJ_CHECK_GT(speed_per_minute, 0.0);
}

std::string ReachableWithinOp::name() const {
  std::ostringstream os;
  os << "reachable_within(" << minutes_ << "min @" << speed_per_minute_
     << ")";
  return os.str();
}

bool ReachableWithinOp::Theta(const Value& a, const Value& b) const {
  return MinDistanceBetween(a, b) <= minutes_ * speed_per_minute_;
}

SJ_HOT bool ReachableWithinOp::ThetaUpper(const Rectangle& a,
                                          const Rectangle& b) const {
  // "o1' overlaps the x-minute buffer of o2'": expand b's MBR by the
  // crow-flies travel radius and test overlap.
  if (a.is_empty() || b.is_empty()) return false;
  return a.Overlaps(BufferMbr(b, minutes_ * speed_per_minute_));
}

std::optional<Rectangle> ReachableWithinOp::ProbeWindow(
    const Rectangle& b, const Rectangle& world) const {
  (void)world;
  return BufferMbr(b, minutes_ * speed_per_minute_);
}

// --------------------------------------------------------------------------
// CountingTheta
// --------------------------------------------------------------------------

CountingTheta::CountingTheta(const ThetaOperator* inner) : inner_(inner) {
  SJ_CHECK(inner != nullptr);
}

bool CountingTheta::Theta(const Value& a, const Value& b) const {
  ++theta_count_;
  return inner_->Theta(a, b);
}

bool CountingTheta::ThetaUpper(const Rectangle& a, const Rectangle& b) const {
  ++theta_upper_count_;
  return inner_->ThetaUpper(a, b);
}

void CountingTheta::Reset() {
  theta_count_ = 0;
  theta_upper_count_ = 0;
}

}  // namespace spatialjoin
