#include "core/spatial_join.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <string_view>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "core/index_nested_loop.h"
#include "core/sort_merge_zorder.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "exec/parallel_join.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace spatialjoin {

const char* JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kNestedLoop:
      return "nested_loop";
    case JoinStrategy::kTreeJoin:
      return "tree_join";
    case JoinStrategy::kIndexNestedLoop:
      return "index_nested_loop";
    case JoinStrategy::kSortMergeZOrder:
      return "sort_merge_zorder";
    case JoinStrategy::kJoinIndex:
      return "join_index";
    case JoinStrategy::kParallelTreeJoin:
      return "parallel_tree_join";
    case JoinStrategy::kPartitionedJoin:
      return "partitioned_join";
  }
  return "unknown";
}

const char* SelectStrategyName(SelectStrategy strategy) {
  switch (strategy) {
    case SelectStrategy::kExhaustive:
      return "exhaustive";
    case SelectStrategy::kTree:
      return "tree_select";
    case SelectStrategy::kJoinIndexLookup:
      return "join_index_lookup";
  }
  return "unknown";
}

namespace {

// `tree` itself when it already is a FrozenTree (every DatasetRegistry
// dataset is), else a snapshot of it held in *snapshot: the storage layer
// is single-threaded, so other trees are materialized on this thread
// before a pool touches them.
const exec::FrozenTree& AsFrozen(const GeneralizationTree& tree,
                                 std::optional<exec::FrozenTree>* snapshot) {
  if (const auto* frozen = dynamic_cast<const exec::FrozenTree*>(&tree)) {
    return *frozen;
  }
  snapshot->emplace(exec::FrozenTree::Materialize(tree));
  return **snapshot;
}

JoinResult DispatchJoin(JoinStrategy strategy, const SpatialJoinContext& ctx,
                        const ThetaOperator& op) {
  switch (strategy) {
    case JoinStrategy::kNestedLoop:
      SJ_CHECK(ctx.r != nullptr && ctx.s != nullptr);
      return NestedLoopJoin(*ctx.r, ctx.col_r, *ctx.s, ctx.col_s, op,
                            ctx.nested_loop_options, ctx.cancel);
    case JoinStrategy::kTreeJoin:
      SJ_CHECK_MSG(ctx.r_tree != nullptr && ctx.s_tree != nullptr,
                   "tree_join needs generalization trees on both inputs");
      return TreeJoin(*ctx.r_tree, *ctx.s_tree, op, ctx.trace, ctx.cancel);
    case JoinStrategy::kIndexNestedLoop:
      SJ_CHECK_MSG(ctx.r_tree != nullptr && ctx.s != nullptr,
                   "index_nested_loop needs a tree on R and relation S");
      return IndexNestedLoopJoin(*ctx.r_tree, *ctx.s, ctx.col_s, op,
                                 Traversal::kBreadthFirst, ctx.cancel);
    case JoinStrategy::kSortMergeZOrder:
      SJ_CHECK_MSG(ctx.zgrid != nullptr, "sort_merge_zorder needs a ZGrid");
      SJ_CHECK(ctx.r != nullptr && ctx.s != nullptr);
      return SortMergeZOrderJoin(*ctx.r, ctx.col_r, *ctx.s, ctx.col_s, op,
                                 *ctx.zgrid, /*options=*/{},
                                 /*stats=*/nullptr, ctx.cancel);
    case JoinStrategy::kJoinIndex:
      SJ_CHECK_MSG(ctx.join_index != nullptr,
                   "join_index strategy needs a prebuilt JoinIndex");
      SJ_CHECK(ctx.r != nullptr && ctx.s != nullptr);
      return ctx.join_index->Execute(*ctx.r, *ctx.s);
    case JoinStrategy::kParallelTreeJoin: {
      SJ_CHECK_MSG(ctx.r_tree != nullptr && ctx.s_tree != nullptr,
                   "parallel_tree_join needs generalization trees on both "
                   "inputs");
      SJ_CHECK_MSG(ctx.exec_pool != nullptr,
                   "parallel_tree_join needs a SpatialJoinContext.exec_pool");
      std::optional<exec::FrozenTree> r_snapshot;
      std::optional<exec::FrozenTree> s_snapshot;
      const exec::FrozenTree& r_frozen = AsFrozen(*ctx.r_tree, &r_snapshot);
      const exec::FrozenTree& s_frozen = AsFrozen(*ctx.s_tree, &s_snapshot);
      return exec::ParallelTreeJoin(r_frozen, s_frozen, op, ctx.exec_pool,
                                    ctx.cancel, ctx.trace);
    }
    case JoinStrategy::kPartitionedJoin: {
      SJ_CHECK(ctx.r != nullptr && ctx.s != nullptr);
      SJ_CHECK_MSG(ctx.exec_pool != nullptr,
                   "partitioned_join needs a SpatialJoinContext.exec_pool");
      SJ_CHECK_MSG(exec::PartitionedJoinSupports(op),
                   "partitioned_join needs an operator with a finite probe "
                   "window");
      std::vector<exec::JoinItem> r_items =
          exec::CollectJoinItems(*ctx.r, ctx.col_r);
      std::vector<exec::JoinItem> s_items =
          exec::CollectJoinItems(*ctx.s, ctx.col_s);
      return exec::PartitionedJoin(r_items, s_items, op, ctx.exec_pool,
                                   /*options=*/{}, ctx.cancel);
    }
  }
  SJ_CHECK_MSG(false, "unreachable");
  return JoinResult{};
}

// One query kind's registry instruments, resolved on the kind's first
// query rather than per query: each lookup takes the registry mutex and
// builds a key string. Strategy and early-stop counters are registered on
// their first use, so the set of registered names is unchanged.
struct QueryKindMetrics {
  static constexpr int kMaxStrategies = 8;

  // `scope_name` ("query.join") prefixes the instruments and names the
  // activity scope and span category, so it must be a static string.
  explicit QueryKindMetrics(const char* scope_name)
      : scope(scope_name),
        count(MetricsRegistry::Global().GetCounter(Name("count"))),
        matches(MetricsRegistry::Global().GetCounter(Name("matches"))),
        wall_ns(MetricsRegistry::Global().GetHistogram(Name("wall_ns"))) {}

  std::string Name(std::string_view leaf) const {
    return std::string(scope) + "." + std::string(leaf);
  }

  // The counter cached in `slot`, registered as "<scope>.<group><leaf>"
  // on first use.
  Counter* Lazy(std::atomic<Counter*>* slot, const char* group,
                const char* leaf) {
    Counter* counter = slot->load(std::memory_order_acquire);
    if (counter == nullptr) {
      counter =
          MetricsRegistry::Global().GetCounter(Name(std::string(group) + leaf));
      slot->store(counter, std::memory_order_release);
    }
    return counter;
  }

  const char* const scope;
  Counter* const count;
  Counter* const matches;
  Histogram* const wall_ns;
  std::atomic<Counter*> strategies[kMaxStrategies] = {};
  std::atomic<Counter*> stopped[2] = {};  // cancelled, deadline
};

// Every JoinStrategy and SelectStrategy (the last enumerators) has a slot.
static_assert(static_cast<int>(JoinStrategy::kPartitionedJoin) <
                  QueryKindMetrics::kMaxStrategies &&
              static_cast<int>(SelectStrategy::kJoinIndexLookup) <
                  QueryKindMetrics::kMaxStrategies);

// The one per-query wrapper, for in-process and served queries alike,
// around `dispatch` (the strategy's body): registry counters and wall
// time, deadline arming, the query's one activity scope, span and charge
// sink, early-stop counters and the trace summary. It records no event.
template <typename Dispatch>
JoinResult RunAccounted(QueryKindMetrics* metrics, int strategy_id,
                        const char* strategy, const SpatialJoinContext& ctx,
                        const Dispatch& dispatch) {
  metrics->count->Increment();
  metrics->Lazy(&metrics->strategies[strategy_id], "strategy.", strategy)
      ->Increment();
  // With a token attached, the advisory budget becomes enforceable: arm
  // the token so the level loops actually stop at the deadline.
  if (ctx.cancel != nullptr && ctx.deadline_budget_ns > 0) {
    ctx.cancel->ArmDeadline(ctx.deadline_budget_ns);
  }

  JoinResult result;
  double wall_ns = 0.0;
  {
    // Exactly one charge sink: the caller's, or the query's own.
    attribution::QueryCharges own;
    attribution::QueryCharges* const caller = attribution::CurrentCharges();
    attribution::QueryChargeScope charges(caller != nullptr ? caller : &own);
    // Strategy names are static strings, as SJ_SPAN (and ActivityScope)
    // names must be. The scope registers the query with the flight
    // recorder: level loops heartbeat it, the watchdog flags it if it
    // stalls or overruns ctx.deadline_budget_ns.
    ActivityScope activity(metrics->scope, strategy, ctx.deadline_budget_ns);
    activity.SetDetail(ctx.activity_detail);
    ScopedSpan span(strategy, metrics->scope);
    ScopedTimer timer(metrics->wall_ns, &wall_ns);
    result = dispatch();
  }
  if (ctx.cancel != nullptr &&
      ctx.cancel->reason() != exec::StopReason::kNone) {
    const bool deadline = ctx.cancel->reason() == exec::StopReason::kDeadline;
    metrics->Lazy(&metrics->stopped[deadline ? 1 : 0], "stopped.",
                  deadline ? "deadline" : "cancelled")
        ->Increment();
  }
  metrics->matches->Increment(static_cast<int64_t>(result.matches.size()));
  if (ctx.trace != nullptr) {
    ctx.trace->set_strategy(strategy);
    ctx.trace->set_wall_ns(wall_ns);
    ctx.trace->set_matches(static_cast<int64_t>(result.matches.size()));
  }
  return result;
}

}  // namespace

JoinResult ExecuteJoin(JoinStrategy strategy, const SpatialJoinContext& ctx,
                       const ThetaOperator& op) {
  static QueryKindMetrics metrics("query.join");
  return RunAccounted(&metrics, static_cast<int>(strategy),
                      JoinStrategyName(strategy), ctx,
                      [&] { return DispatchJoin(strategy, ctx, op); });
}

namespace {

// A finished selection's counters and matches, as (selector, S) pairs.
JoinResult SelectAsJoinResult(const SelectResult& sel, TupleId selector_tid) {
  JoinResult result;
  result.theta_tests = sel.theta_tests;
  result.theta_upper_tests = sel.theta_upper_tests;
  result.nodes_accessed = sel.nodes_accessed;
  for (TupleId tid : sel.matching_tuples) {
    SJ_BOUNDED_WORK;  // repackages a finished select's matches
    result.matches.emplace_back(selector_tid, tid);
  }
  return result;
}

JoinResult DispatchSelect(SelectStrategy strategy,
                          const SpatialJoinContext& ctx,
                          const Value& selector, TupleId selector_tid,
                          const ThetaOperator& op) {
  switch (strategy) {
    case SelectStrategy::kExhaustive: {
      SJ_CHECK(ctx.s != nullptr);
      JoinResult result =
          NestedLoopSelect(selector, *ctx.s, ctx.col_s, op);
      // NestedLoopSelect reports matches on the left; reorient to S side.
      for (auto& m : result.matches) {
        SJ_BOUNDED_WORK;  // one pass over the finished result
        m = {selector_tid, m.first};
      }
      return result;
    }
    case SelectStrategy::kTree: {
      SJ_CHECK_MSG(ctx.s_tree != nullptr, "tree select needs a tree on S");
      return SelectAsJoinResult(
          SpatialSelect(selector, *ctx.s_tree, op, Traversal::kBreadthFirst,
                        ctx.trace, ctx.cancel),
          selector_tid);
    }
    case SelectStrategy::kJoinIndexLookup: {
      SJ_CHECK_MSG(ctx.join_index != nullptr && ctx.s != nullptr,
                   "join-index lookup needs the index and relation S");
      SJ_CHECK_MSG(selector_tid != kInvalidTupleId,
                   "join-index lookup requires a stored selector tuple");
      JoinResult result;
      for (TupleId s_tid : ctx.join_index->SMatchesOf(selector_tid)) {
        SJ_BOUNDED_WORK;  // one tuple's precomputed match list
        (void)ctx.s->Read(s_tid);
        ++result.nodes_accessed;
        result.matches.emplace_back(selector_tid, s_tid);
      }
      return result;
    }
  }
  SJ_CHECK_MSG(false, "unreachable");
  return JoinResult{};
}

}  // namespace

JoinResult ExecuteSelect(SelectStrategy strategy,
                         const SpatialJoinContext& ctx, const Value& selector,
                         TupleId selector_tid, const ThetaOperator& op) {
  static QueryKindMetrics metrics("query.select");
  return RunAccounted(&metrics, static_cast<int>(strategy),
                      SelectStrategyName(strategy), ctx, [&] {
                        return DispatchSelect(strategy, ctx, selector,
                                              selector_tid, op);
                      });
}

void NormalizeMatches(JoinResult* result) {
  std::sort(result->matches.begin(), result->matches.end());
  result->matches.erase(
      std::unique(result->matches.begin(), result->matches.end()),
      result->matches.end());
}

}  // namespace spatialjoin
