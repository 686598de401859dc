// Cooperative cancellation and deadline semantics (DESIGN.md §12): token
// latching, level-boundary stops in the sequential and parallel
// traversals, partial-result shape, and the cleanliness of the thread
// pool and buffer pool after a stopped query (the exec auditors).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/bufferpool_audit.h"
#include "audit/exec_audit.h"
#include "core/join.h"
#include "core/select.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "exec/parallel_join.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

TEST(CancelToken, DefaultTokenNeverStops) {
  exec::CancelToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_EQ(token.reason(), exec::StopReason::kNone);
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancelToken, CancelLatchesAndConverts) {
  exec::CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), exec::StopReason::kCancelled);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelToken, DeadlineLatchesAndConverts) {
  exec::CancelToken token;
  token.ArmDeadline(1);  // 1ns: expired by the time anyone polls
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), exec::StopReason::kDeadline);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelToken, FirstReasonWinsEvenIfBothFire) {
  exec::CancelToken token;
  token.Cancel();
  ASSERT_TRUE(token.ShouldStop());  // latches kCancelled
  token.ArmDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.ShouldStop());
  // The reason is sticky: the deadline passing later does not rewrite
  // the history the caller already observed.
  EXPECT_EQ(token.reason(), exec::StopReason::kCancelled);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelToken, GenerousDeadlineDoesNotTrip) {
  exec::CancelToken token;
  token.ArmDeadline(int64_t{60} * 1'000'000'000);
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancelToken, ArmDeadlineNonPositiveDisarms) {
  exec::CancelToken token;
  token.ArmDeadline(1);
  token.ArmDeadline(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(token.ShouldStop());
}

// Disk-backed fixture (the dispatcher path the query service exercises),
// mirroring the join-strategies fixture: two 200-rectangle relations
// with R-trees.
class CancelExecutionTest : public ::testing::Test {
 protected:
  CancelExecutionTest()
      : disk_(2000), pool_(&disk_, 2048), world_(0, 0, 600, 600) {
    Schema schema({{"id", ValueType::kInt64},
                   {"box", ValueType::kRectangle}});
    r_ = std::make_unique<Relation>("r", schema, &pool_);
    s_ = std::make_unique<Relation>("s", schema, &pool_);
    r_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic, 8);
    s_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic, 8);
    RectGenerator gen_r(world_, 31);
    RectGenerator gen_s(world_, 32);
    for (int64_t i = 0; i < 200; ++i) {
      Rectangle box_r = gen_r.NextRect(2, 30);
      Rectangle box_s = gen_s.NextRect(2, 30);
      r_rtree_->Insert(box_r, r_->Insert(Tuple({Value(i), Value(box_r)})));
      s_rtree_->Insert(box_s, s_->Insert(Tuple({Value(i), Value(box_s)})));
    }
    r_adapter_ = std::make_unique<RTreeGenTree>(r_rtree_.get(), r_.get(), 1);
    s_adapter_ = std::make_unique<RTreeGenTree>(s_rtree_.get(), s_.get(), 1);
  }

  DiskManager disk_;
  BufferPool pool_;
  Rectangle world_;
  std::unique_ptr<Relation> r_;
  std::unique_ptr<Relation> s_;
  std::unique_ptr<RTree> r_rtree_;
  std::unique_ptr<RTree> s_rtree_;
  std::unique_ptr<RTreeGenTree> r_adapter_;
  std::unique_ptr<RTreeGenTree> s_adapter_;
};

TEST_F(CancelExecutionTest, PreCancelledTreeJoinStopsBeforeAnyLevel) {
  OverlapsOp op;
  JoinResult full = TreeJoin(*r_adapter_, *s_adapter_, op);
  ASSERT_FALSE(full.matches.empty());  // the stop must be observable

  exec::CancelToken token;
  token.Cancel();
  JoinResult stopped =
      TreeJoin(*r_adapter_, *s_adapter_, op, nullptr, &token);
  EXPECT_TRUE(stopped.matches.empty());
  EXPECT_EQ(stopped.qual_pairs_examined, 0);
  EXPECT_LT(stopped.nodes_accessed, full.nodes_accessed);
}

TEST_F(CancelExecutionTest, PreExpiredDeadlineSelectDoesZeroWork) {
  OverlapsOp op;
  exec::CancelToken token;
  token.ArmDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Value selector(Rectangle(100, 100, 400, 400));
  SelectResult stopped =
      SpatialSelect(selector, *s_adapter_, op, Traversal::kBreadthFirst,
                    nullptr, &token);
  // The entry check guarantees a deterministic empty result — not one
  // that depends on how far the traversal raced the clock.
  EXPECT_TRUE(stopped.matching_nodes.empty());
  EXPECT_TRUE(stopped.matching_tuples.empty());
  EXPECT_EQ(stopped.nodes_accessed, 0);
  EXPECT_EQ(token.reason(), exec::StopReason::kDeadline);

  // The flat kernel over a FrozenTree snapshot makes the same entry
  // check, for a pre-cancelled token as for a pre-expired one.
  const exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*s_adapter_);
  ASSERT_FALSE(SpatialSelect(selector, s_frozen, op).matching_tuples.empty());
  exec::CancelToken cancelled;
  cancelled.Cancel();
  exec::CancelToken expired;
  expired.ArmDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (exec::CancelToken* flat_token : {&cancelled, &expired}) {
    QueryTrace trace("select");
    const SelectResult flat =
        SpatialSelect(selector, s_frozen, op, Traversal::kBreadthFirst,
                      &trace, flat_token);
    EXPECT_TRUE(flat.matching_nodes.empty());
    EXPECT_TRUE(flat.matching_tuples.empty());
    EXPECT_EQ(flat.theta_upper_tests, 0);
    EXPECT_EQ(flat.nodes_accessed, 0);
    EXPECT_TRUE(trace.levels().empty());
  }
  EXPECT_EQ(cancelled.reason(), exec::StopReason::kCancelled);
  EXPECT_EQ(expired.reason(), exec::StopReason::kDeadline);
}

TEST_F(CancelExecutionTest, DispatcherDeadlineReturnsDeadlineExceeded) {
  OverlapsOp op;
  exec::CancelToken token;
  SpatialJoinContext ctx;
  ctx.r_tree = r_adapter_.get();
  ctx.s_tree = s_adapter_.get();
  ctx.cancel = &token;
  ctx.deadline_budget_ns = 1;  // expires before the first level boundary

  JoinResult stopped = ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
  EXPECT_EQ(stopped.qual_pairs_examined, 0);  // no level was processed
  EXPECT_TRUE(stopped.matches.empty());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);

  // A stopped query must leave the storage layer as clean as a finished
  // one: every page unpinned, frame bookkeeping consistent.
  audit::AuditReport storage = audit::AuditBufferPool(pool_);
  EXPECT_TRUE(storage.ok()) << storage.ToJson();
}

TEST_F(CancelExecutionTest, DispatcherWithoutDeadlineLeavesTokenClean) {
  OverlapsOp op;
  exec::CancelToken token;
  SpatialJoinContext ctx;
  ctx.r_tree = r_adapter_.get();
  ctx.s_tree = s_adapter_.get();
  ctx.cancel = &token;  // armed with no budget: must never fire

  JoinResult full = ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
  EXPECT_FALSE(full.matches.empty());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST_F(CancelExecutionTest, CancelledParallelJoinLeavesPoolQuiescent) {
  OverlapsOp op;
  exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(*r_adapter_);
  exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*s_adapter_);
  exec::ThreadPool workers(4);

  exec::CancelToken token;
  token.Cancel();
  JoinResult stopped = exec::ParallelTreeJoin(r_frozen, s_frozen, op,
                                              &workers, &token);
  EXPECT_TRUE(stopped.matches.empty());

  // The cancelled join reached its level barrier before stopping, so no
  // chunk task may be left behind on the pool.
  EXPECT_TRUE(workers.Quiescent());
  audit::AuditReport report = audit::AuditThreadPool(workers);
  EXPECT_TRUE(report.ok()) << report.ToJson();
}

// Cancels `token` on the `after`-th Θ evaluation: a cancel that lands at
// a known point of the traversal, so two kernels can be held to the same
// stop point. Keeps the default ThetaUpperBatch, which makes one
// ThetaUpper call per element.
class CancellingTheta : public ThetaOperator {
 public:
  CancellingTheta(const ThetaOperator* inner, exec::CancelToken* token,
                  int64_t after)
      : inner_(inner), token_(token), after_(after) {}
  std::string name() const override { return inner_->name(); }
  bool Theta(const Value& a, const Value& b) const override {
    return inner_->Theta(a, b);
  }
  bool ThetaUpper(const Rectangle& a, const Rectangle& b) const override {
    if (++calls_ == after_) token_->Cancel();
    return inner_->ThetaUpper(a, b);
  }

 private:
  const ThetaOperator* inner_;
  exec::CancelToken* token_;
  int64_t after_;
  mutable int64_t calls_ = 0;
};

TEST_F(CancelExecutionTest, MidFlightCancelStopsAtALevelBoundary) {
  // Cancellation from another thread, racing the traversal: wherever the
  // cancel lands, the result must be a *prefix* of the sequential run's
  // levels — never a torn level — and the counters must stay consistent
  // (every match was really tested).
  OverlapsOp op;
  JoinResult full = TreeJoin(*r_adapter_, *s_adapter_, op);

  exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(*r_adapter_);
  exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*s_adapter_);
  exec::ThreadPool workers(4);
  exec::CancelToken token;

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.Cancel();
  });
  JoinResult stopped = exec::ParallelTreeJoin(r_frozen, s_frozen, op,
                                              &workers, &token);
  canceller.join();

  // Whatever was produced is a prefix of the full result.
  ASSERT_LE(stopped.matches.size(), full.matches.size());
  for (size_t i = 0; i < stopped.matches.size(); ++i) {
    EXPECT_EQ(stopped.matches[i], full.matches[i]) << "at " << i;
  }
  EXPECT_LE(stopped.qual_pairs_examined, full.qual_pairs_examined);
  EXPECT_TRUE(workers.Quiescent());

  // FrozenTree inputs to the sequential TreeJoin, which takes the flat
  // kernel: cancelled at any Θ evaluation of level L, it stops at the same
  // level boundary as the generic kernel on the source trees cancelled
  // inside L, and returns the same prefix. Both poll only between levels,
  // but the flat kernel skips the Θ tests that cannot change the answer,
  // so each kernel's cancelling call — the first, a middle and the last
  // of the level — is taken from its own per-level trace.
  QueryTrace generic_levels("join");
  QueryTrace flat_levels("join");
  TreeJoin(*r_adapter_, *s_adapter_, op, &generic_levels);
  TreeJoin(r_frozen, s_frozen, op, &flat_levels);
  ASSERT_EQ(flat_levels.levels().size(), generic_levels.levels().size());
  ASSERT_GE(generic_levels.levels().size(), 3u);
  const auto nth_call = [](int64_t calls, int which) -> int64_t {
    return which == 0 ? 1 : (which == 1 ? (calls + 1) / 2 : calls);
  };
  int64_t generic_before = 0;  // Θ evaluations before level L
  int64_t flat_before = 0;
  int64_t pairs_through = 0;  // QualPairs of levels [0, L]
  for (size_t level = 0; level < generic_levels.levels().size(); ++level) {
    const int64_t generic_calls =
        generic_levels.levels()[level].theta_upper_tests;
    const int64_t flat_calls = flat_levels.levels()[level].theta_upper_tests;
    pairs_through += generic_levels.levels()[level].worklist;
    for (int which = 0; which < 3; ++which) {
      const std::string where =
          "join, level " + std::to_string(level) + " call " +
          std::to_string(which);
      exec::CancelToken generic_token;
      exec::CancelToken flat_token;
      const int64_t generic_after =
          generic_before + nth_call(generic_calls, which);
      const int64_t flat_after = flat_before + nth_call(flat_calls, which);
      CancellingTheta generic_op(&op, &generic_token, generic_after);
      CancellingTheta flat_op(&op, &flat_token, flat_after);
      const JoinResult generic =
          TreeJoin(*r_adapter_, *s_adapter_, generic_op, nullptr,
                   &generic_token);
      const JoinResult flat =
          TreeJoin(r_frozen, s_frozen, flat_op, nullptr, &flat_token);
      EXPECT_TRUE(generic_token.ShouldStop()) << where;
      EXPECT_TRUE(flat_token.ShouldStop()) << where;
      EXPECT_EQ(flat.matches, generic.matches) << where;
      // Each ran exactly levels [0, L].
      EXPECT_EQ(generic.qual_pairs_examined, pairs_through) << where;
      EXPECT_EQ(flat.qual_pairs_examined, pairs_through) << where;
      EXPECT_EQ(generic.theta_upper_tests, generic_before + generic_calls)
          << where;
      EXPECT_EQ(flat.theta_upper_tests, flat_before + flat_calls) << where;
      ASSERT_LE(flat.matches.size(), full.matches.size());
      for (size_t i = 0; i < flat.matches.size(); ++i) {
        EXPECT_EQ(flat.matches[i], full.matches[i]) << "at " << i;
      }
    }
    generic_before += generic_calls;
    flat_before += flat_calls;
  }

  // The same for SpatialSelect, whose flat kernel makes the generic
  // traversal's Θ evaluations: cancelled at the same one, both stop at
  // the same point. The selection runs over a tree of 1500 rectangles,
  // so several of its 256-visit poll points fall inside it.
  Relation big("big", Schema({{"id", ValueType::kInt64},
                              {"box", ValueType::kRectangle}}),
               &pool_);
  RTree big_rtree(&pool_, RTreeSplit::kQuadratic, 8);
  RectGenerator gen_big(world_, 33);
  for (int64_t i = 0; i < 1500; ++i) {
    Rectangle box = gen_big.NextRect(2, 30);
    big_rtree.Insert(box, big.Insert(Tuple({Value(i), Value(box)})));
  }
  RTreeGenTree big_adapter(&big_rtree, &big, 1);
  exec::FrozenTree big_frozen = exec::FrozenTree::Materialize(big_adapter);
  Value selector(Rectangle(0, 0, 600, 600));
  const SelectResult full_select = SpatialSelect(selector, big_adapter, op);
  ASSERT_GT(full_select.theta_upper_tests, 1024);
  for (int64_t after : {1, 40, 300, 700, 5000}) {
    exec::CancelToken generic_select_token;
    exec::CancelToken flat_select_token;
    CancellingTheta generic_select_op(&op, &generic_select_token, after);
    CancellingTheta flat_select_op(&op, &flat_select_token, after);
    const SelectResult generic_select =
        SpatialSelect(selector, big_adapter, generic_select_op,
                      Traversal::kBreadthFirst, nullptr,
                      &generic_select_token);
    const SelectResult flat_select =
        SpatialSelect(selector, big_frozen, flat_select_op,
                      Traversal::kBreadthFirst, nullptr, &flat_select_token);
    EXPECT_EQ(flat_select.matching_tuples, generic_select.matching_tuples)
        << "select, after " << after;
    EXPECT_EQ(flat_select.theta_upper_tests, generic_select.theta_upper_tests)
        << "select, after " << after;
    EXPECT_EQ(flat_select.nodes_accessed, generic_select.nodes_accessed)
        << "select, after " << after;
    ASSERT_LE(flat_select.matching_tuples.size(),
              full_select.matching_tuples.size());
    for (size_t i = 0; i < flat_select.matching_tuples.size(); ++i) {
      EXPECT_EQ(flat_select.matching_tuples[i],
                full_select.matching_tuples[i])
          << "at " << i;
    }
  }
}

}  // namespace
}  // namespace spatialjoin
