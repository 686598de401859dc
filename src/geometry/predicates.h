#ifndef SPATIALJOIN_GEOMETRY_PREDICATES_H_
#define SPATIALJOIN_GEOMETRY_PREDICATES_H_

#include "geometry/point.h"

namespace spatialjoin {

/// Absolute tolerance of the segment predicates: a cross product or a
/// coordinate within this of zero (of a box edge) counts as on it.
inline constexpr double kGeometryEps = 1e-12;

/// std::min / std::max for coordinates, under names of their own: the
/// sj_analyze call graph resolves calls by simple name, and `min`/`max`
/// would pull unrelated methods into the hot-path closure.
inline double CoordMin(double a, double b) { return b < a ? b : a; }
inline double CoordMax(double a, double b) { return a < b ? b : a; }

/// Sign of the orientation of the ordered triple (a, b, c):
/// +1 counter-clockwise, -1 clockwise, 0 collinear (within `eps`).
inline int Orientation(const Point& a, const Point& b, const Point& c,
                       double eps = kGeometryEps) {
  const double cross = (b - a).Cross(c - a);
  if (cross > eps) return 1;
  if (cross < -eps) return -1;
  return 0;
}

/// True iff `p` lies in the bounding box of [a, b] grown by `eps` on
/// every side.
inline bool InSegmentBox(const Point& p, const Point& a, const Point& b,
                         double eps = kGeometryEps) {
  return p.x >= CoordMin(a.x, b.x) - eps && p.x <= CoordMax(a.x, b.x) + eps &&
         p.y >= CoordMin(a.y, b.y) - eps && p.y <= CoordMax(a.y, b.y) + eps;
}

/// True iff point `p` lies on the closed segment [a, b].
inline bool PointOnSegment(const Point& p, const Point& a, const Point& b,
                           double eps = kGeometryEps) {
  return InSegmentBox(p, a, b, eps) && Orientation(a, b, p, eps) == 0;
}

/// True iff [a1,a2] and [b1,b2] cross at a point interior to both: each
/// segment's endpoints lie strictly (beyond the tolerance) on opposite
/// sides of the other's line. Touching and collinear contact do not count.
inline bool SegmentsCrossProperly(const Point& a1, const Point& a2,
                                  const Point& b1, const Point& b2) {
  return Orientation(a1, a2, b1) * Orientation(a1, a2, b2) < 0 &&
         Orientation(b1, b2, a1) * Orientation(b1, b2, a2) < 0;
}

/// True iff the closed segments [a1,a2] and [b1,b2] share at least one
/// point (proper or improper intersection). A proper crossing needs all
/// four orientations nonzero; with one of them zero (within the
/// tolerance), the segments meet only where that endpoint lies on the
/// other segment. Nearly collinear, nearly parallel segments therefore
/// do not meet unless an endpoint touches.
inline bool SegmentsIntersect(const Point& a1, const Point& a2,
                              const Point& b1, const Point& b2) {
  const int o1 = Orientation(a1, a2, b1);
  const int o2 = Orientation(a1, a2, b2);
  const int o3 = Orientation(b1, b2, a1);
  const int o4 = Orientation(b1, b2, a2);
  if (o1 * o2 < 0 && o3 * o4 < 0) return true;  // proper crossing
  // Collinear / touching cases: the zero orientation is the one
  // PointOnSegment would compute, so only its box test remains.
  return (o1 == 0 && InSegmentBox(b1, a1, a2)) ||
         (o2 == 0 && InSegmentBox(b2, a1, a2)) ||
         (o3 == 0 && InSegmentBox(a1, b1, b2)) ||
         (o4 == 0 && InSegmentBox(a2, b1, b2));
}

/// Compass-quadrant predicate used by the paper's example operator
/// "o1 to the Northwest of o2" (measured between centerpoints, §3.1 /
/// Fig. 5): true iff `a` is strictly to the left of and strictly above `b`.
bool NorthwestOf(const Point& a, const Point& b);

/// The Θ-counterpart construction from Fig. 5: true iff rectangle-corner
/// test "a overlaps the NW quadrant formed by the right vertical and the
/// lower horizontal tangent on b" holds, expressed on raw coordinates:
/// the quadrant is { (x,y) : x <= quad_x, y >= quad_y }.
bool PointInNwQuadrant(const Point& p, double quad_x, double quad_y);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_GEOMETRY_PREDICATES_H_
