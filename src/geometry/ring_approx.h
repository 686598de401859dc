#ifndef SPATIALJOIN_GEOMETRY_RING_APPROX_H_
#define SPATIALJOIN_GEOMETRY_RING_APPROX_H_

#include <cstdint>

#include "common/thread_annotations.h"
#include "geometry/point.h"
#include "geometry/ring.h"

namespace spatialjoin {

/// Two cheap approximations of one ring, the filter steps of a
/// multi-step refine (Brinkhoff et al., SIGMOD '94) that settle many
/// ring pairs before the exact RingsIntersect runs (DESIGN.md §4):
///
///  * the inscribed disk, a progressive approximation: it is centred on
///    the vertex mean; its radius is the centre's distance to the
///    nearest edge less `margin` when the centre lies inside the ring
///    (even-odd rule), else 0, which means no disk. The closed disk lies
///    in the ring's region, `margin` clear of every edge;
///  * the octagon, a conservative approximation: the vertices' extents
///    along x + y and x − y. Together with the MBR it encloses the ring.
///
/// `margin` is 1e-9 times the ring's largest coordinate magnitude (at
/// least 1), plus 4·kGeometryEps over its shortest edge of nonzero
/// length: more than the distance from this ring's edges at which the
/// exact test's ε-tolerant predicates still report contact, and more than
/// their rounding. A record with margin 0 is no record.
///
/// The record is one 64-byte cache line: deciding a pair reads every
/// field of both operands' records.
struct alignas(64) RingApprox {
  Point center;
  double radius = 0.0;
  double sum_min = 0.0;   // min of x + y over the vertices
  double sum_max = 0.0;   // max of x + y
  double diff_min = 0.0;  // min of x − y
  double diff_max = 0.0;  // max of x − y
  double margin = 0.0;

  SJ_HOT bool built() const { return margin > 0.0; }
};
static_assert(sizeof(RingApprox) == 64, "one record per cache line");

/// The rule of the multi-step refine that decides a pair of rings, tried
/// in this order.
enum class RefineRule : uint8_t {
  kDisksOverlap,   // the two disks meet: the rings intersect
  kOctagonsApart,  // the octagons are more than twice the two margins
                   // apart: they do not
  kVertexInDisk,   // a vertex of one ring lies in the other's disk: they
                   // intersect
  kExact,          // none of the above: RingsIntersect decides
};

/// The record of a ring with at least one vertex.
SJ_HOT RingApprox BuildRingApprox(const RingView& ring);

/// The first rule that decides the pair (a, b), given each ring's record.
SJ_HOT RefineRule DecidingRule(const RingView& a, const RingApprox& approx_a,
                               const RingView& b, const RingApprox& approx_b);

/// RingsIntersect(a, b), answered by the deciding rule where it is a
/// cheap one; the answer is always RingsIntersect's.
SJ_HOT bool RingsIntersectMultiStep(const RingView& a,
                                    const RingApprox& approx_a,
                                    const RingView& b,
                                    const RingApprox& approx_b);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_GEOMETRY_RING_APPROX_H_
