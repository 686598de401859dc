#ifndef SPATIALJOIN_EXEC_PARALLEL_JOIN_H_
#define SPATIALJOIN_EXEC_PARALLEL_JOIN_H_

#include "core/join.h"
#include "core/select.h"
#include "core/theta_ops.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace spatialjoin {
namespace exec {

/// Algorithm JOIN (paper §3.3) over two FrozenTrees: the flat kernel's
/// join and its level driver (exec/flat_kernel.cc, DESIGN.md §7).
///
/// Each QualPairs[j] level is held as cross-product blocks — the
/// Θ-qualifying children of a × those of b, exactly as one JOIN4 step
/// records them — and expanded in the a-major order the generic kernel
/// (core/join_detail.h) appends pairs in, so the pair list itself is never
/// stored. Each block row (one a against all its b partners) is Θ-tested
/// by one ThetaOperator::ThetaUpperBatch call over the gathered b-side
/// MBR planes; the two JOIN4 selection passes run per Θ-qualifying pair,
/// Θ-testing whole child id ranges per call. θ runs only where it can emit
/// a match: on a pair (JOIN3) or a selector and a node (JOIN4) that are
/// all application objects. A pass whose selector is no application
/// object Θ-tests the anchor's direct children, which seed the next
/// level, and descends no further. Scratch rows are reused, so nothing is
/// allocated per pair or per pass.
///
/// `pool` is optional. Null runs every level on the calling thread; this
/// is the path TreeJoin takes for FrozenTree inputs. With a pool, a level
/// with more than one chunk's worth of expected Θ work is cut into runs
/// of block rows, each chunk runs on some worker into its own buffers,
/// and the buffers are merged in chunk order at the level barrier.
/// Either way the matches (in order), `qual_pairs_examined`, each `trace`
/// level's worklist, pruned and descended counts, and the stop points are
/// those of the generic TreeJoin on the source trees, at any pool width;
/// `theta_upper_tests`, `theta_tests` and `nodes_accessed` (in total and
/// per level) count the tests above, at most the generic kernel's.
///
/// `cancel` is polled at every level boundary, where no chunk is in
/// flight: a stopped join returns the prefix of completed levels with
/// the pool quiescent. Both trees and the operator must be safe for
/// concurrent reads (FrozenTree is; every Table 1 operator is).
JoinResult ParallelTreeJoin(const FrozenTree& r_tree, const FrozenTree& s_tree,
                            const ThetaOperator& op, ThreadPool* pool,
                            const CancelToken* cancel = nullptr,
                            QueryTrace* trace = nullptr);

/// Algorithm SELECT (paper §3.2) over a FrozenTree, on the calling
/// thread: the flat kernel's selection (exec/flat_kernel.cc), which
/// breadth-first SpatialSelect runs for FrozenTree inputs, so callers
/// reach it through SpatialSelect. Each QualNodes[j] frontier is a list of
/// child id ranges, Θ-tested one run of siblings per
/// ThetaOperator::ThetaUpperBatch call; qualifying nodes are θ-tested and
/// their child ranges form the next frontier. The visits, the
/// `matching_nodes` order, the counters, the `trace` levels and the stop
/// points are those of the generic SpatialSelectFrom over the same tree:
/// `cancel` is polled, and the watchdog heartbeat beats, at entry and
/// before every 256th visit.
SelectResult FlatSelect(const Value& selector, const FrozenTree& tree,
                        const ThetaOperator& op,
                        const CancelToken* cancel = nullptr,
                        QueryTrace* trace = nullptr);

}  // namespace exec
}  // namespace spatialjoin

#endif  // SPATIALJOIN_EXEC_PARALLEL_JOIN_H_
