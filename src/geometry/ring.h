#ifndef SPATIALJOIN_GEOMETRY_RING_H_
#define SPATIALJOIN_GEOMETRY_RING_H_

#include <cstddef>

#include "geometry/point.h"
#include "geometry/rectangle.h"

namespace spatialjoin {

/// A borrowed view of a closed boundary ring: `size` vertices at
/// `points`, edge i running from vertex i to vertex (i + 1) mod size, and
/// the vertices' MBR. The areal predicates below work on views, so they
/// copy no geometry; whatever owns the points must outlive the view.
/// A polygon lends its own ring (Polygon::ring_view); a rectangle lends
/// its four corners, written to caller storage by RectangleRing.
struct RingView {
  const Point* points = nullptr;
  size_t size = 0;
  Rectangle mbr;
};

/// Writes the corners of the non-empty rectangle `r` to `corners` in the
/// order Polygon::FromRectangle uses — (min_x, min_y), (max_x, min_y),
/// (max_x, max_y), (min_x, max_y) — and returns a view of them.
RingView RectangleRing(const Rectangle& r, Point corners[4]);

/// Point-in-ring by ray casting; boundary points count as inside.
bool RingContainsPoint(const RingView& ring, const Point& p);

/// True iff the regions bounded by the two rings share a point: some pair
/// of boundary edges meets (SegmentsIntersect), or one ring contains the
/// other's first vertex. Only edges whose boxes meet the intersection of
/// the two MBRs are tested, and only pairs of those whose boxes meet
/// (every box grown by kGeometryEps); the answer is that of testing all
/// edge pairs. Needs no heap memory for any ring size.
bool RingsIntersect(const RingView& a, const RingView& b);

/// True iff every point of `inner`'s region lies in `outer`'s (closed
/// containment: touching boundaries are allowed, proper crossings not).
bool RingContainsRing(const RingView& outer, const RingView& inner);

/// Minimum distance between the two regions (0 when they intersect).
double RingDistance(const RingView& a, const RingView& b);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_GEOMETRY_RING_H_
