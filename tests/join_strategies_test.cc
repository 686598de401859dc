#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "core/index_nested_loop.h"
#include "core/spatial_join.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/hierarchy_generator.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

using MatchSet = std::set<std::pair<TupleId, TupleId>>;

MatchSet AsSet(const JoinResult& result) {
  return MatchSet(result.matches.begin(), result.matches.end());
}

// End-to-end fixture: two rectangle relations, R-trees on both, a ZGrid,
// and a prebuilt join index — everything the dispatcher can need.
class StrategiesTest : public ::testing::Test {
 protected:
  StrategiesTest()
      : disk_(2000),
        pool_(&disk_, 2048),
        world_(0, 0, 600, 600),
        grid_(world_) {
    Schema schema({{"id", ValueType::kInt64},
                   {"box", ValueType::kRectangle}});
    r_ = std::make_unique<Relation>("r", schema, &pool_);
    s_ = std::make_unique<Relation>("s", schema, &pool_);
    r_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic, 8);
    s_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic, 8);
    RectGenerator gen_r(world_, 21);
    RectGenerator gen_s(world_, 22);
    for (int64_t i = 0; i < 250; ++i) {
      Rectangle box_r = gen_r.NextRect(2, 30);
      Rectangle box_s = gen_s.NextRect(2, 30);
      r_rtree_->Insert(box_r, r_->Insert(Tuple({Value(i), Value(box_r)})));
      s_rtree_->Insert(box_s, s_->Insert(Tuple({Value(i), Value(box_s)})));
    }
    r_adapter_ = std::make_unique<RTreeGenTree>(r_rtree_.get(), r_.get(), 1);
    s_adapter_ = std::make_unique<RTreeGenTree>(s_rtree_.get(), s_.get(), 1);
    join_index_ = std::make_unique<JoinIndex>(&pool_, 100);
    OverlapsOp op;
    join_index_->Build(*r_, 1, *s_, 1, op);

    ctx_.r = r_.get();
    ctx_.col_r = 1;
    ctx_.s = s_.get();
    ctx_.col_s = 1;
    ctx_.r_tree = r_adapter_.get();
    ctx_.s_tree = s_adapter_.get();
    ctx_.join_index = join_index_.get();
    ctx_.zgrid = &grid_;
  }

  DiskManager disk_;
  BufferPool pool_;
  Rectangle world_;
  ZGrid grid_;
  std::unique_ptr<Relation> r_;
  std::unique_ptr<Relation> s_;
  std::unique_ptr<RTree> r_rtree_;
  std::unique_ptr<RTree> s_rtree_;
  std::unique_ptr<RTreeGenTree> r_adapter_;
  std::unique_ptr<RTreeGenTree> s_adapter_;
  std::unique_ptr<JoinIndex> join_index_;
  SpatialJoinContext ctx_;
};

TEST_F(StrategiesTest, AllStrategiesAgreeForOverlaps) {
  OverlapsOp op;
  JoinResult baseline = ExecuteJoin(JoinStrategy::kNestedLoop, ctx_, op);
  MatchSet truth = AsSet(baseline);
  EXPECT_FALSE(truth.empty());
  for (JoinStrategy strategy :
       {JoinStrategy::kTreeJoin, JoinStrategy::kIndexNestedLoop,
        JoinStrategy::kSortMergeZOrder, JoinStrategy::kJoinIndex}) {
    JoinResult result = ExecuteJoin(strategy, ctx_, op);
    EXPECT_EQ(AsSet(result), truth) << JoinStrategyName(strategy);
  }
}

TEST_F(StrategiesTest, NonOverlapStrategiesAgreeForDistanceJoin) {
  WithinDistanceOp op(12.0);
  JoinResult baseline = ExecuteJoin(JoinStrategy::kNestedLoop, ctx_, op);
  MatchSet truth = AsSet(baseline);
  for (JoinStrategy strategy :
       {JoinStrategy::kTreeJoin, JoinStrategy::kIndexNestedLoop}) {
    JoinResult result = ExecuteJoin(strategy, ctx_, op);
    EXPECT_EQ(AsSet(result), truth) << JoinStrategyName(strategy);
  }
}

TEST_F(StrategiesTest, IndexNestedLoopPrunesThetaTests) {
  WithinDistanceOp op(10.0);
  JoinResult nl = ExecuteJoin(JoinStrategy::kNestedLoop, ctx_, op);
  JoinResult inl = ExecuteJoin(JoinStrategy::kIndexNestedLoop, ctx_, op);
  EXPECT_EQ(AsSet(nl), AsSet(inl));
  // The index probe must beat |R|·|S| θ evaluations.
  EXPECT_LT(inl.theta_tests, nl.theta_tests);
}

TEST_F(StrategiesTest, SelectStrategiesAgree) {
  OverlapsOp op;
  RectGenerator gen(world_, 99);
  for (int q = 0; q < 5; ++q) {
    Value selector(gen.NextRect(20, 80));
    JoinResult exhaustive = ExecuteSelect(SelectStrategy::kExhaustive, ctx_,
                                          selector, kInvalidTupleId, op);
    // Tree select probes S's generalization tree.
    JoinResult tree = ExecuteSelect(SelectStrategy::kTree, ctx_, selector,
                                    kInvalidTupleId, op);
    EXPECT_EQ(AsSet(exhaustive), AsSet(tree));
  }
}

TEST_F(StrategiesTest, JoinIndexSelectLookup) {
  OverlapsOp op;
  // For a stored R tuple, the join-index lookup answers the selection.
  TupleId selector_tid = 17;
  Value selector = r_->Read(selector_tid).value(1);
  JoinResult lookup = ExecuteSelect(SelectStrategy::kJoinIndexLookup, ctx_,
                                    selector, selector_tid, op);
  JoinResult exhaustive = ExecuteSelect(SelectStrategy::kExhaustive, ctx_,
                                        selector, selector_tid, op);
  EXPECT_EQ(AsSet(lookup), AsSet(exhaustive));
  EXPECT_EQ(lookup.theta_tests, 0);
}

TEST_F(StrategiesTest, NormalizeMatchesSortsAndDedups) {
  JoinResult result;
  result.matches = {{2, 1}, {1, 1}, {2, 1}, {0, 5}};
  NormalizeMatches(&result);
  EXPECT_EQ(result.matches,
            (std::vector<std::pair<TupleId, TupleId>>{
                {0, 5}, {1, 1}, {2, 1}}));
}

// Each query charges its kind's count/matches and its strategy's counter
// once; a strategy's counter registers on that strategy's first query.
TEST_F(StrategiesTest, QueriesChargeKindAndStrategyCounters) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::map<std::string, int64_t> before = registry.CounterSnapshot();
  OverlapsOp op;
  const JoinResult tree = ExecuteJoin(JoinStrategy::kTreeJoin, ctx_, op);
  const JoinResult nested = ExecuteJoin(JoinStrategy::kNestedLoop, ctx_, op);
  const Value selector(Rectangle(100, 100, 300, 300));
  const JoinResult select = ExecuteSelect(SelectStrategy::kExhaustive, ctx_,
                                          selector, kInvalidTupleId, op);
  ExecuteSelect(SelectStrategy::kExhaustive, ctx_, selector, kInvalidTupleId,
                op);
  const std::map<std::string, int64_t> after = registry.CounterSnapshot();
  auto delta = [&](const std::string& name) {
    return after.at(name) - (before.count(name) ? before.at(name) : 0);
  };
  EXPECT_EQ(delta("query.join.count"), 2);
  EXPECT_EQ(delta("query.join.strategy.tree_join"), 1);
  EXPECT_EQ(delta("query.join.strategy.nested_loop"), 1);
  EXPECT_EQ(delta("query.join.matches"),
            static_cast<int64_t>(tree.matches.size() + nested.matches.size()));
  EXPECT_EQ(delta("query.select.count"), 2);
  EXPECT_EQ(delta("query.select.strategy.exhaustive"), 2);
  EXPECT_EQ(delta("query.select.matches"),
            2 * static_cast<int64_t>(select.matches.size()));
  // No test in this binary runs the pooled tree join.
  EXPECT_EQ(after.count("query.join.strategy.parallel_tree_join"), 0u);
}

// In-process queries record no event-log entry, whether they finish, are
// cancelled, or stop at their deadline — also when the caller reads the
// stop as a Status, as the query service does.
TEST_F(StrategiesTest, QueriesRecordNoEvents) {
  OverlapsOp op;
  const Value selector(Rectangle(100, 100, 300, 300));
  const uint64_t before = EventLog::Global().total();
  ExecuteJoin(JoinStrategy::kTreeJoin, ctx_, op);
  ExecuteSelect(SelectStrategy::kTree, ctx_, selector, kInvalidTupleId, op);

  SpatialJoinContext ctx = ctx_;
  exec::CancelToken cancelled;
  cancelled.Cancel();
  ctx.cancel = &cancelled;
  ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
  ExecuteSelect(SelectStrategy::kTree, ctx, selector, kInvalidTupleId, op);
  EXPECT_EQ(cancelled.ToStatus().code(), StatusCode::kCancelled);

  ctx.deadline_budget_ns = 1;  // expires before the first level boundary
  exec::CancelToken late_join;
  ctx.cancel = &late_join;
  ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
  EXPECT_EQ(late_join.ToStatus().code(), StatusCode::kDeadlineExceeded);
  exec::CancelToken late_select;
  ctx.cancel = &late_select;
  ExecuteSelect(SelectStrategy::kTree, ctx, selector, kInvalidTupleId, op);
  EXPECT_EQ(late_select.ToStatus().code(), StatusCode::kDeadlineExceeded);

  EXPECT_EQ(EventLog::Global().total(), before);
}

// A traced disk-backed join's levels carry exactly the buffer-pool
// traffic the join caused.
TEST_F(StrategiesTest, TracedJoinLevelsCarryItsPoolTraffic) {
  OverlapsOp op;
  ASSERT_TRUE(pool_.Clear().ok());  // cold: misses as well as hits
  const BufferPoolStats before = pool_.stats();
  QueryTrace trace("join");
  SpatialJoinContext ctx = ctx_;
  ctx.trace = &trace;
  ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
  const BufferPoolStats after = pool_.stats();
  EXPECT_GT(after.misses, before.misses);
  EXPECT_EQ(trace.TotalPoolHits(), after.hits - before.hits);
  EXPECT_EQ(trace.TotalPoolMisses(), after.misses - before.misses);
}

// A FrozenTree join does no pool I/O, so none of its traced levels shows
// any — even while another thread runs disk-backed joins on a pool of its
// own, whose traffic moves the process-wide pool counters meanwhile.
TEST_F(StrategiesTest, FrozenJoinLevelsIgnoreConcurrentPoolTraffic) {
  const exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(*r_adapter_);
  const exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*s_adapter_);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> other_joins{0};
  std::thread other([&] {
    // A storage stack of its own: the storage layer is single-threaded.
    DiskManager disk(2000);
    BufferPool pool(&disk, 16);
    Schema schema({{"id", ValueType::kInt64},
                   {"box", ValueType::kRectangle}});
    Relation r("r", schema, &pool);
    Relation s("s", schema, &pool);
    RTree r_rtree(&pool, RTreeSplit::kQuadratic, 8);
    RTree s_rtree(&pool, RTreeSplit::kQuadratic, 8);
    RectGenerator gen_r(world_, 31);
    RectGenerator gen_s(world_, 32);
    for (int64_t i = 0; i < 150; ++i) {
      Rectangle box_r = gen_r.NextRect(2, 30);
      Rectangle box_s = gen_s.NextRect(2, 30);
      r_rtree.Insert(box_r, r.Insert(Tuple({Value(i), Value(box_r)})));
      s_rtree.Insert(box_s, s.Insert(Tuple({Value(i), Value(box_s)})));
    }
    RTreeGenTree r_adapter(&r_rtree, &r, 1);
    RTreeGenTree s_adapter(&s_rtree, &s, 1);
    SpatialJoinContext ctx;
    ctx.r_tree = &r_adapter;
    ctx.s_tree = &s_adapter;
    OverlapsOp op;
    while (!stop.load()) {
      ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
      other_joins.fetch_add(1);
    }
  });
  while (other_joins.load() == 0) std::this_thread::yield();

  OverlapsOp op;
  SpatialJoinContext ctx;
  ctx.r_tree = &r_frozen;
  ctx.s_tree = &s_frozen;
  for (int q = 0; q < 50; ++q) {
    QueryTrace trace("join");
    ctx.trace = &trace;
    ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
    ASSERT_GT(trace.levels().size(), 1u);
    for (const TraceLevel& level : trace.levels()) {
      EXPECT_EQ(level.pool_hits, 0) << "query " << q << ", height "
                                    << level.height;
      EXPECT_EQ(level.pool_misses, 0) << "query " << q << ", height "
                                      << level.height;
    }
  }
  stop.store(true);
  other.join();
}

TEST_F(StrategiesTest, StrategyNamesAreStable) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kNestedLoop), "nested_loop");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kTreeJoin), "tree_join");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kJoinIndex), "join_index");
  EXPECT_STREQ(SelectStrategyName(SelectStrategy::kTree), "tree_select");
}

}  // namespace
}  // namespace spatialjoin
