#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/check.h"
#include "core/planner.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/relation.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

// Deterministic seeded workload: two 150-rectangle relations, R-tree
// indexed, joined with the tree strategy under a trace. The explain
// report built from it must line up predicted against measured values
// with finite residual ratios.
class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({{"id", ValueType::kInt64}, {"box", ValueType::kRectangle}});
    r_ = std::make_unique<Relation>("r", schema, &pool_,
                                    RelationLayout::kClustered, 300);
    s_ = std::make_unique<Relation>("s", schema, &pool_,
                                    RelationLayout::kClustered, 300);
    r_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic);
    s_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic);
    Rectangle world(0, 0, 1000, 1000);
    RectGenerator gen_r(world, 17);
    RectGenerator gen_s(world, 29);
    for (int64_t i = 0; i < 150; ++i) {
      Rectangle br = gen_r.NextRect(5, 50);
      Rectangle bs = gen_s.NextRect(5, 50);
      r_rtree_->Insert(br, r_->Insert(Tuple({Value(i), Value(br)})));
      s_rtree_->Insert(bs, s_->Insert(Tuple({Value(i), Value(bs)})));
    }
    r_tree_ = std::make_unique<RTreeGenTree>(r_rtree_.get(), r_.get(), 1);
    s_tree_ = std::make_unique<RTreeGenTree>(s_rtree_.get(), s_.get(), 1);
  }

  ExplainReport RunExplainedJoin(QueryTrace* trace) {
    OverlapsOp op;
    SJ_CHECK_OK(pool_.Clear());
    pool_.ResetStats();
    disk_.ResetStats();
    IoStats io_before = disk_.stats();

    SpatialJoinContext ctx;
    ctx.r = r_.get();
    ctx.col_r = 1;
    ctx.s = s_.get();
    ctx.col_s = 1;
    ctx.r_tree = r_tree_.get();
    ctx.s_tree = s_tree_.get();
    ctx.trace = trace;
    JoinResult result = ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);

    IoStats io_delta = disk_.stats() - io_before;
    JoinStatistics stats = EstimateJoinStatistics(*r_, 1, *s_, 1, op, 150, 7);
    PlannerContext pctx;
    pctx.r_tree_available = true;
    pctx.s_tree_available = true;
    pctx.overlap_like = true;
    JoinPlan plan = PlanJoin(stats, pctx);
    ModelParameters params = FitModelParameters(stats);
    double wall = trace != nullptr ? trace->wall_ns() : 0.0;
    MeasuredJoin measured =
        MeasureJoin(result, io_delta, pool_.stats(), wall);
    return ExplainAnalyzeJoin(JoinStrategy::kTreeJoin, plan, params,
                              MatchDistribution::kUniform, measured, trace);
  }

  DiskManager disk_{2000};
  BufferPool pool_{&disk_, 128};
  std::unique_ptr<Relation> r_;
  std::unique_ptr<Relation> s_;
  std::unique_ptr<RTree> r_rtree_;
  std::unique_ptr<RTree> s_rtree_;
  std::unique_ptr<RTreeGenTree> r_tree_;
  std::unique_ptr<RTreeGenTree> s_tree_;
};

TEST_F(ExplainTest, PredictedVsMeasuredPageAccessesFiniteResidual) {
  QueryTrace trace("join", "explain test");
  ExplainReport report = RunExplainedJoin(&trace);

  const ExplainRow* pages = report.Find("page_accesses");
  ASSERT_NE(pages, nullptr);
  EXPECT_GT(pages->predicted, 0.0);
  EXPECT_GT(pages->measured, 0.0);
  EXPECT_TRUE(std::isfinite(pages->residual)) << pages->residual;
  EXPECT_GT(pages->residual, 0.0);

  const ExplainRow* evals = report.Find("theta_evaluations");
  ASSERT_NE(evals, nullptr);
  EXPECT_GT(evals->predicted, 0.0);
  // The measured side is the engine's own Θ+θ count.
  EXPECT_DOUBLE_EQ(
      evals->measured,
      static_cast<double>(trace.TotalThetaUpperTests() +
                          trace.TotalThetaTests()));
  EXPECT_TRUE(std::isfinite(evals->residual));

  const ExplainRow* total = report.Find("total_cost");
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(std::isfinite(total->residual));
  EXPECT_EQ(report.Find("no_such_metric"), nullptr);
}

TEST_F(ExplainTest, ReportRecordsStrategyAndTrace) {
  QueryTrace trace("join", "explain test");
  ExplainReport report = RunExplainedJoin(&trace);

  EXPECT_EQ(report.executed, JoinStrategy::kTreeJoin);
  EXPECT_TRUE(report.has_trace);
  ASSERT_FALSE(report.trace_levels.empty());
  // The root worklist is the single root pair.
  EXPECT_EQ(report.trace_levels.front().height, 0);
  EXPECT_EQ(report.trace_levels.front().worklist, 1);
  EXPECT_GT(report.matches, 0);
  EXPECT_GT(report.wall_ns, 0.0);
  EXPECT_GT(report.pool_hit_rate, 0.0);
  EXPECT_LE(report.pool_hit_rate, 1.0);

  std::string text = report.ToString();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("page_accesses"), std::string::npos);
  EXPECT_NE(text.find("level"), std::string::npos);
}

TEST_F(ExplainTest, JsonIsValidWithAndWithoutTrace) {
  QueryTrace trace("join", "explain test");
  ExplainReport with_trace = RunExplainedJoin(&trace);
  std::string json = with_trace.ToJson();
  EXPECT_TRUE(ParseJson(json).ok()) << json;
  EXPECT_NE(json.find("\"levels\""), std::string::npos);

  ExplainReport without_trace = RunExplainedJoin(nullptr);
  EXPECT_FALSE(without_trace.has_trace);
  std::string json2 = without_trace.ToJson();
  EXPECT_TRUE(ParseJson(json2).ok()) << json2;
  EXPECT_EQ(json2.find("\"levels\""), std::string::npos);
}

TEST_F(ExplainTest, DeterministicAcrossRuns) {
  QueryTrace t1("join"), t2("join");
  ExplainReport a = RunExplainedJoin(&t1);
  ExplainReport b = RunExplainedJoin(&t2);
  // Same seeded workload → identical counts (wall time differs).
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_DOUBLE_EQ(a.Find("theta_evaluations")->measured,
                   b.Find("theta_evaluations")->measured);
  EXPECT_DOUBLE_EQ(a.Find("page_accesses")->measured,
                   b.Find("page_accesses")->measured);
}

TEST(ExplainResidualTest, ZeroPredictedZeroMeasuredIsOne) {
  // The join-index strategy predicts zero θ at query time. Build a report
  // with zero measured evaluations: residual must be exactly 1.
  ModelParameters params = PaperParameters();
  params.p = 1e-6;
  JoinPlan plan;
  plan.strategy = JoinStrategy::kJoinIndex;
  MeasuredJoin measured;  // all zero
  ExplainReport report =
      ExplainAnalyzeJoin(JoinStrategy::kJoinIndex, plan, params,
                         MatchDistribution::kUniform, measured);
  const ExplainRow* evals = report.Find("theta_evaluations");
  ASSERT_NE(evals, nullptr);
  EXPECT_DOUBLE_EQ(evals->predicted, 0.0);
  EXPECT_DOUBLE_EQ(evals->residual, 1.0);
  // Non-finite residuals must still serialize to valid JSON (as null).
  MeasuredJoin nonzero;
  nonzero.theta_tests = 5;
  ExplainReport inf_report =
      ExplainAnalyzeJoin(JoinStrategy::kJoinIndex, plan, params,
                         MatchDistribution::kUniform, nonzero);
  EXPECT_TRUE(std::isinf(inf_report.Find("theta_evaluations")->residual));
  EXPECT_TRUE(ParseJson(inf_report.ToJson()).ok());
}

}  // namespace
}  // namespace spatialjoin
