#include "geometry/ring_approx.h"

#include <cmath>
#include <limits>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "geometry/predicates.h"

namespace spatialjoin {

namespace {

// The margin's part relative to the coordinates' magnitude: six orders
// above the rounding of the ring predicates (~1e-15 of it), and far
// below the size of any shape a workload joins.
constexpr double kRelativeMargin = 1e-9;

// Rule 1: the disks share a point, which lies in both regions.
bool ApproxDisksOverlap(const RingApprox& a, const RingApprox& b) {
  if (a.radius <= 0.0 || b.radius <= 0.0) return false;
  const double reach = a.radius + b.radius;
  return Distance2(a.center, b.center) <= reach * reach;
}

// Rule 2: the octagons are apart along x + y or x − y by more than twice
// the two margins. Two points d apart differ by at most √2·d in x ± y,
// so no point of one ring is within the margins of the other. (The
// octagons' other axes are the MBRs' x and y, which RingsIntersect tests
// first and θ's callers have already found overlapping.)
bool ApproxOctagonsApart(const RingApprox& a, const RingApprox& b) {
  const double gap = 2.0 * (a.margin + b.margin);
  return a.sum_max + gap < b.sum_min || b.sum_max + gap < a.sum_min ||
         a.diff_max + gap < b.diff_min || b.diff_max + gap < a.diff_min;
}

// Rule 3, one way round: some vertex of `ring` lies in the disk of
// `disk_of`, so inside that ring's region.
bool ApproxVertexInDisk(const RingView& ring, const RingApprox& disk_of) {
  const double r = disk_of.radius;
  if (r <= 0.0) return false;
  const Point& c = disk_of.center;
  // Every vertex lies in the ring's MBR, so the disk must reach it.
  if (c.x + r < ring.mbr.min_x() || ring.mbr.max_x() < c.x - r ||
      c.y + r < ring.mbr.min_y() || ring.mbr.max_y() < c.y - r) {
    return false;
  }
  const double r2 = r * r;
  for (size_t i = 0; i < ring.size; ++i) {
    SJ_BOUNDED_WORK;  // one ring's vertices
    if (Distance2(ring.points[i], c) <= r2) return true;
  }
  return false;
}

}  // namespace

SJ_HOT RingApprox BuildRingApprox(const RingView& ring) {
  SJ_DCHECK(ring.size > 0);
  const size_t n = ring.size;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RingApprox approx;
  approx.sum_min = approx.diff_min = kInf;
  approx.sum_max = approx.diff_max = -kInf;
  double sum_x = 0.0;
  double sum_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    SJ_BOUNDED_WORK;  // one ring's vertices
    const Point& p = ring.points[i];
    sum_x += p.x;
    sum_y += p.y;
    approx.sum_min = CoordMin(approx.sum_min, p.x + p.y);
    approx.sum_max = CoordMax(approx.sum_max, p.x + p.y);
    approx.diff_min = CoordMin(approx.diff_min, p.x - p.y);
    approx.diff_max = CoordMax(approx.diff_max, p.x - p.y);
  }
  const Point center(sum_x / static_cast<double>(n),
                     sum_y / static_cast<double>(n));
  approx.center = center;
  // The centre's distance to the nearest edge, and whether it is inside
  // by the even-odd rule: the edges a ray towards +x crosses are those
  // that straddle the centre's y (half-open at vertices) and pass to its
  // right, which is to the left of an upward edge and to the right of a
  // downward one. The parity is trusted only when the distance exceeds
  // the margin, far beyond the rounding of the cross product. The loop
  // has no branch that depends on the data: for a point whose projection
  // onto an edge's line falls outside the edge, the squared distance
  // adds the overshoot along the line, and max(0, x) is (|x| + x) / 2. A
  // zero-length edge divides zero by zero, and the NaN loses every
  // CoordMin; its vertex is an endpoint of a neighbouring edge.
  double nearest2 = kInf;
  double shortest2 = kInf;  // shortest edge of nonzero length, squared
  unsigned crossings = 0;
  for (size_t i = 0, prev = n - 1; i < n; prev = i++) {
    SJ_BOUNDED_WORK;  // one ring's edges
    const Point& a = ring.points[prev];
    const Point& b = ring.points[i];
    const Point edge = b - a;
    const Point rel = center - a;
    const double along = rel.Dot(edge);
    const double length2 = edge.Norm2();
    if (length2 > 0.0) shortest2 = CoordMin(shortest2, length2);
    const double cross = edge.Cross(rel);
    const double before = 0.5 * (std::fabs(along) - along);
    const double past = 0.5 * (std::fabs(along - length2) + (along - length2));
    nearest2 = CoordMin(
        nearest2, (cross * cross + before * before + past * past) / length2);
    const bool straddles = (a.y > center.y) != (b.y > center.y);
    const bool to_right = (cross > 0.0) == (b.y > a.y);
    crossings += static_cast<unsigned>(straddles && to_right);
  }
  const Rectangle& mbr = ring.mbr;
  const double scale = CoordMax(
      CoordMax(1.0, CoordMax(std::fabs(mbr.min_x()), std::fabs(mbr.max_x()))),
      CoordMax(std::fabs(mbr.min_y()), std::fabs(mbr.max_y())));
  // A point SegmentsIntersect calls on an edge of length L lies within
  // 2·ε/L + 2·ε of it (ε = kGeometryEps): the orientation bound puts it
  // within ε/L of the edge's line, the ε-grown box within 2·ε + ε/L of
  // the segment along it.
  approx.margin = kRelativeMargin * scale;
  if (shortest2 < kInf) {
    approx.margin += 4.0 * kGeometryEps / std::sqrt(shortest2);
  }
  const double depth = std::sqrt(nearest2);
  if ((crossings & 1) != 0 && depth > approx.margin) {
    approx.radius = depth - approx.margin;
  }
  return approx;
}

SJ_HOT RefineRule DecidingRule(const RingView& a, const RingApprox& approx_a,
                               const RingView& b,
                               const RingApprox& approx_b) {
  if (ApproxDisksOverlap(approx_a, approx_b)) return RefineRule::kDisksOverlap;
  if (ApproxOctagonsApart(approx_a, approx_b)) {
    return RefineRule::kOctagonsApart;
  }
  if (ApproxVertexInDisk(b, approx_a) || ApproxVertexInDisk(a, approx_b)) {
    return RefineRule::kVertexInDisk;
  }
  return RefineRule::kExact;
}

SJ_HOT bool RingsIntersectMultiStep(const RingView& a,
                                    const RingApprox& approx_a,
                                    const RingView& b,
                                    const RingApprox& approx_b) {
  switch (DecidingRule(a, approx_a, b, approx_b)) {
    case RefineRule::kDisksOverlap:
    case RefineRule::kVertexInDisk:
      return true;
    case RefineRule::kOctagonsApart:
      return false;
    case RefineRule::kExact:
      break;
  }
  return RingsIntersect(a, b);
}

}  // namespace spatialjoin
