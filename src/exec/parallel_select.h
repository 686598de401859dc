#ifndef SPATIALJOIN_EXEC_PARALLEL_SELECT_H_
#define SPATIALJOIN_EXEC_PARALLEL_SELECT_H_

#include "core/select.h"
#include "core/theta_ops.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace spatialjoin {
namespace exec {

/// Algorithm SELECT (paper §3.2), breadth-first over a FrozenTree: the
/// same level driver as ParallelTreeJoin (exec/flat_kernel.cc). Each
/// QualNodes[j] frontier is a list of child id ranges, Θ-tested one range
/// per ThetaOperator::ThetaUpperBatch call; qualifying nodes are θ-tested
/// and their child ranges form the next frontier. `matching_nodes` comes
/// out in the sequential breadth-first visit order at any pool width.
///
/// Without a pool (SpatialSelect's path for FrozenTree inputs) the
/// selection heartbeats and polls `cancel` at entry and every 256 visits,
/// exactly like the generic SpatialSelect, and fills `trace` the same
/// way. With a pool, a frontier larger than one chunk is cut into chunks
/// by node count and merged in chunk order, and `cancel` is polled at
/// each level barrier: a stopped selection returns the prefix of
/// completed levels with the pool quiescent.
SelectResult ParallelSelect(const Value& selector, const FrozenTree& tree,
                            const ThetaOperator& op, ThreadPool* pool,
                            const CancelToken* cancel = nullptr,
                            QueryTrace* trace = nullptr);

}  // namespace exec
}  // namespace spatialjoin

#endif  // SPATIALJOIN_EXEC_PARALLEL_SELECT_H_
