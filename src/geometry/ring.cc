#include "geometry/ring.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "geometry/distance.h"
#include "geometry/predicates.h"

namespace spatialjoin {

namespace {

// The vertex after vertex i on a ring of n vertices.
size_t NextVertex(size_t i, size_t n) { return i + 1 < n ? i + 1 : 0; }

// A closed axis-aligned box: an edge's, or the window edges must reach.
struct EdgeBox {
  double min_x;
  double min_y;
  double max_x;
  double max_y;
};

// The box of edge [p, q] grown by kGeometryEps: the box InSegmentBox
// tests points against.
EdgeBox GrownEdgeBox(const Point& p, const Point& q) {
  return {.min_x = CoordMin(p.x, q.x) - kGeometryEps,
          .min_y = CoordMin(p.y, q.y) - kGeometryEps,
          .max_x = CoordMax(p.x, q.x) + kGeometryEps,
          .max_y = CoordMax(p.y, q.y) + kGeometryEps};
}

// True iff `p` lies in the ring's (closed) MBR. Rectangle::ContainsPoint
// would do, but sj_analyze resolves calls by simple name and would pull
// every other ContainsPoint into RingsIntersect's hot-path closure.
bool InRingMbr(const RingView& ring, const Point& p) {
  return ring.mbr.min_x() <= p.x && p.x <= ring.mbr.max_x() &&
         ring.mbr.min_y() <= p.y && p.y <= ring.mbr.max_y();
}

bool EdgeBoxesMeet(const EdgeBox& a, const EdgeBox& b) {
  return a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y &&
         b.min_y <= a.max_y;
}

// Live edges of the second ring buffered per pass over the first ring's
// edges; rings with more live edges than this take several passes.
constexpr size_t kLiveEdgeChunk = 32;

}  // namespace

RingView RectangleRing(const Rectangle& r, Point corners[4]) {
  SJ_CHECK(!r.is_empty());
  corners[0] = Point(r.min_x(), r.min_y());
  corners[1] = Point(r.max_x(), r.min_y());
  corners[2] = Point(r.max_x(), r.max_y());
  corners[3] = Point(r.min_x(), r.max_y());
  return RingView{corners, 4, r};
}

bool RingContainsPoint(const RingView& ring, const Point& p) {
  if (ring.size == 0 || !InRingMbr(ring, p)) return false;
  // One pass: a point on an edge is inside at once (boundary counts as
  // inside); otherwise the ray cast towards +x decides, with the usual
  // half-open edge rule to count vertex crossings exactly once.
  bool inside = false;
  for (size_t i = 0; i < ring.size; ++i) {
    const Point& a = ring.points[i];
    const Point& b = ring.points[NextVertex(i, ring.size)];
    if (PointOnSegment(p, a, b)) return true;
    if ((a.y > p.y) == (b.y > p.y)) continue;
    const double x_at_y = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
    if (x_at_y > p.x) inside = !inside;
  }
  return inside;
}

SJ_HOT bool RingsIntersect(const RingView& a, const RingView& b) {
  if (a.size == 0 || b.size == 0 || !a.mbr.Overlaps(b.mbr)) return false;
  // A point both boundaries share lies in both MBRs and in the boxes of
  // the two edges it is on; SegmentsIntersect finds it only within
  // kGeometryEps of those boxes. So edges whose grown box misses the
  // grown MBR intersection, and pairs whose grown boxes miss each other,
  // cannot meet and are skipped.
  const EdgeBox window = {
      .min_x = CoordMax(a.mbr.min_x(), b.mbr.min_x()) - kGeometryEps,
      .min_y = CoordMax(a.mbr.min_y(), b.mbr.min_y()) - kGeometryEps,
      .max_x = CoordMin(a.mbr.max_x(), b.mbr.max_x()) + kGeometryEps,
      .max_y = CoordMin(a.mbr.max_y(), b.mbr.max_y()) + kGeometryEps};
  EdgeBox live_box[kLiveEdgeChunk];
  size_t live_edge[kLiveEdgeChunk];
  size_t next_b = 0;
  while (next_b < b.size) {
    size_t live = 0;
    for (; next_b < b.size && live < kLiveEdgeChunk; ++next_b) {
      const EdgeBox box =
          GrownEdgeBox(b.points[next_b], b.points[NextVertex(next_b, b.size)]);
      if (!EdgeBoxesMeet(box, window)) continue;
      live_box[live] = box;
      live_edge[live] = next_b;
      ++live;
    }
    if (live == 0) continue;
    for (size_t i = 0; i < a.size; ++i) {
      const Point& a1 = a.points[i];
      const Point& a2 = a.points[NextVertex(i, a.size)];
      const EdgeBox box = GrownEdgeBox(a1, a2);
      if (!EdgeBoxesMeet(box, window)) continue;
      for (size_t k = 0; k < live; ++k) {
        if (!EdgeBoxesMeet(box, live_box[k])) continue;
        const size_t j = live_edge[k];
        if (SegmentsIntersect(a1, a2, b.points[j],
                              b.points[NextVertex(j, b.size)])) {
          return true;
        }
      }
    }
  }
  // No boundary contact: one region may still contain the other.
  return RingContainsPoint(a, b.points[0]) ||
         RingContainsPoint(b, a.points[0]);
}

bool RingContainsRing(const RingView& outer, const RingView& inner) {
  if (outer.size == 0 || inner.size == 0) return false;
  if (!outer.mbr.Contains(inner.mbr)) return false;
  // All vertices of `inner` inside, and no boundary crossing that would
  // take a part of it outside.
  for (size_t j = 0; j < inner.size; ++j) {
    if (!RingContainsPoint(outer, inner.points[j])) return false;
  }
  for (size_t i = 0; i < outer.size; ++i) {
    const Point& a1 = outer.points[i];
    const Point& a2 = outer.points[NextVertex(i, outer.size)];
    for (size_t j = 0; j < inner.size; ++j) {
      // Touching is permitted (closed containment); proper crossings are not.
      if (SegmentsCrossProperly(a1, a2, inner.points[j],
                                inner.points[NextVertex(j, inner.size)])) {
        return false;
      }
    }
  }
  return true;
}

double RingDistance(const RingView& a, const RingView& b) {
  SJ_CHECK(a.size > 0 && b.size > 0);
  if (RingsIntersect(a, b)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < a.size; ++i) {
    const Point& a1 = a.points[i];
    const Point& a2 = a.points[NextVertex(i, a.size)];
    for (size_t j = 0; j < b.size; ++j) {
      best = std::min(best, DistanceSegmentSegment(
                                a1, a2, b.points[j],
                                b.points[NextVertex(j, b.size)]));
    }
  }
  return best;
}

}  // namespace spatialjoin
