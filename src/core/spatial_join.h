#ifndef SPATIALJOIN_CORE_SPATIAL_JOIN_H_
#define SPATIALJOIN_CORE_SPATIAL_JOIN_H_

#include <string>

#include "core/gentree.h"
#include "core/join.h"
#include "core/join_index.h"
#include "core/nested_loop.h"
#include "core/select.h"
#include "core/theta_ops.h"
#include "obs/trace.h"
#include "relational/relation.h"
#include "zorder/zorder.h"

namespace spatialjoin {

namespace exec {
class CancelToken;
class ThreadPool;
}  // namespace exec

/// The join-processing strategies compared in the paper (§2, §4), the
/// index-supported strategy of §2.2, and the parallel strategies of the
/// exec layer (DESIGN.md §7).
enum class JoinStrategy {
  kNestedLoop,        // strategy I
  kTreeJoin,          // strategy II (Algorithm JOIN over two trees)
  kIndexNestedLoop,   // index-supported join with one tree
  kSortMergeZOrder,   // Orenstein sort-merge; overlap-like θ only
  kJoinIndex,         // strategy III (precomputed)
  kParallelTreeJoin,  // strategy II, QualPairs sharded over a thread pool
  kPartitionedJoin,   // PBSM-style grid partitioning + per-tile sweep
};

/// Display name ("nested_loop", "tree_join", …).
const char* JoinStrategyName(JoinStrategy strategy);

/// All inputs a strategy might need; unused fields may stay null, but
/// dispatching to a strategy whose prerequisites are missing is a checked
/// error (e.g. kTreeJoin without both trees).
struct SpatialJoinContext {
  const Relation* r = nullptr;
  size_t col_r = 0;
  const Relation* s = nullptr;
  size_t col_s = 0;
  const GeneralizationTree* r_tree = nullptr;
  const GeneralizationTree* s_tree = nullptr;
  const JoinIndex* join_index = nullptr;
  const ZGrid* zgrid = nullptr;
  NestedLoopOptions nested_loop_options;
  /// Optional per-query trace. ExecuteJoin/ExecuteSelect stamp strategy,
  /// wall time, and match count on it; the tree strategies additionally
  /// fill per-level events (see QueryTrace).
  QueryTrace* trace = nullptr;
  /// Worker pool for the parallel join strategies (kParallelTreeJoin,
  /// kPartitionedJoin); dispatching one of them with a null pool is a
  /// checked error. The storage layer is single-threaded, so the
  /// dispatcher materializes thread-safe snapshots on the calling thread
  /// before fanning out: exec::JoinItem vectors for PBSM, and an
  /// exec::FrozenTree of each input tree that is not one already
  /// (FrozenTree inputs are used as they are).
  exec::ThreadPool* exec_pool = nullptr;
  /// Wall-clock budget for the query in nanoseconds (0 = none). Two
  /// consumers: the flight recorder's watchdog (obs/flight_recorder.h)
  /// reports an over-deadline query with a deadline_exceeded event and a
  /// dump, and when `cancel` is set the dispatcher arms the token with
  /// this budget so the traversal actually stops (see below).
  int64_t deadline_budget_ns = 0;
  /// Who asked ("sess3 req17"), shown as the detail of the query's
  /// activity in flight dumps; may be null.
  const char* activity_detail = nullptr;
  /// Optional cooperative cancellation/deadline token (exec/cancel.h).
  /// The tree-walking strategies poll it at their level boundaries and
  /// stop early when it fires; ExecuteJoin/ExecuteSelect then return the
  /// partial result with the token's reason latched — callers that need
  /// a Status convert via cancel->ToStatus() (the query service does).
  /// Strategies without level structure (nested loop, sort-merge, join
  /// index) ignore the token and run to completion.
  exec::CancelToken* cancel = nullptr;
};

/// Runs R ⋈_θ S with the chosen strategy. All strategies produce the same
/// match set (sort-merge only for overlap-like θ); they differ in the
/// counters, which the benches translate into paper-comparable costs.
///
/// Every execution emits into the global MetricsRegistry: query.join.count,
/// query.join.strategy.<name>, query.join.matches, and the wall-clock
/// histogram query.join.wall_ns, and runs the query under one activity
/// ("query.join"), one span and one charge sink (obs/attribution.h).
JoinResult ExecuteJoin(JoinStrategy strategy, const SpatialJoinContext& ctx,
                       const ThetaOperator& op);

/// Strategies for the degenerate join (spatial selection, §4.3).
enum class SelectStrategy {
  kExhaustive,       // strategy I
  kTree,             // strategy II (Algorithm SELECT)
  kJoinIndexLookup,  // strategy III; selector must be a stored R tuple
};

/// Display name for a selection strategy.
const char* SelectStrategyName(SelectStrategy strategy);

/// Runs a spatial selection over S: all S tuples with selector θ s.
/// For kJoinIndexLookup, `selector_tid` names the stored R tuple whose
/// matches are read from ctx.join_index; other strategies use `selector`.
JoinResult ExecuteSelect(SelectStrategy strategy,
                         const SpatialJoinContext& ctx, const Value& selector,
                         TupleId selector_tid, const ThetaOperator& op);

/// Sorts matches lexicographically and removes duplicates, for comparing
/// strategies' outputs.
void NormalizeMatches(JoinResult* result);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_SPATIAL_JOIN_H_
