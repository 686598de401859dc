#include "core/planner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/math_util.h"
#include "common/random.h"
#include "costmodel/join_cost.h"
#include "costmodel/update_cost.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace spatialjoin {

JoinStatistics EstimateJoinStatistics(const Relation& r, size_t col_r,
                                      const Relation& s, size_t col_s,
                                      const ThetaOperator& op,
                                      int sample_pairs, uint64_t seed) {
  SJ_CHECK_GE(sample_pairs, 1);
  SJ_SPAN_CAT("planner.estimate_statistics", "planner");
  JoinStatistics stats;
  stats.r_tuples = r.num_tuples();
  stats.s_tuples = s.num_tuples();
  if (stats.r_tuples == 0 || stats.s_tuples == 0) return stats;
  Rng rng(seed);
  int64_t hits = 0;
  for (int i = 0; i < sample_pairs; ++i) {
    TupleId r_tid = static_cast<TupleId>(
        rng.NextUint64(static_cast<uint64_t>(stats.r_tuples)));
    TupleId s_tid = static_cast<TupleId>(
        rng.NextUint64(static_cast<uint64_t>(stats.s_tuples)));
    ++stats.sample_tests;
    if (op.Theta(r.ReadValue(r_tid, col_r), s.ReadValue(s_tid, col_s))) {
      ++hits;
    }
  }
  stats.selectivity =
      static_cast<double>(hits) / static_cast<double>(sample_pairs);
  // Zero hits in the sample still leaves p > 0 plausible; use the rule-
  // of-three upper bound so the planner does not assume an empty result.
  if (hits == 0) {
    stats.selectivity = 1.0 / (3.0 * static_cast<double>(sample_pairs));
  }
  stats.selectivity_stderr =
      std::sqrt(stats.selectivity * (1.0 - stats.selectivity) /
                static_cast<double>(sample_pairs));
  MetricsRegistry::Global()
      .GetCounter("planner.sample_theta_tests")
      ->Increment(stats.sample_tests);
  return stats;
}

ModelParameters FitModelParameters(const JoinStatistics& stats) {
  ModelParameters params = PaperParameters();
  int64_t n_tuples = std::max<int64_t>(
      {stats.r_tuples, stats.s_tuples, 2});
  params.n = std::max(
      1, static_cast<int>(std::ceil(std::log(static_cast<double>(n_tuples)) /
                                    std::log(static_cast<double>(params.k)))));
  params.h = params.n;
  params.p = Clamp(stats.selectivity, 1e-15, 1.0);
  params.T = n_tuples;
  return params;
}

std::string JoinPlan::ToString() const {
  std::ostringstream os;
  os << "plan: " << JoinStrategyName(strategy) << " (est. cost "
     << estimated_cost << ")";
  for (const PlannedAlternative& alt : alternatives) {
    os << "\n  " << JoinStrategyName(alt.strategy) << ": ";
    if (alt.feasible) {
      os << alt.estimated_cost;
      if (alt.near_tie) os << " (~tie)";
    } else {
      os << "infeasible";
    }
  }
  return os.str();
}

namespace {

constexpr int kNumAlternatives = 5;

/// Prices every strategy at the given selectivity.  Feasibility is
/// independent of p, so callers re-invoke this to bracket the costs at
/// p̂ ± stderr without touching the feasibility flags.
std::array<double, kNumAlternatives> PriceAlternatives(
    const JoinStatistics& stats, const PlannerContext& ctx,
    double selectivity) {
  JoinStatistics priced = stats;
  priced.selectivity = selectivity;
  ModelParameters params = FitModelParameters(priced);
  // The planner has no locality knowledge — score with UNIFORM, the
  // conservative choice (locality only helps the tree strategies).
  JoinCosts join_costs = ComputeJoinCosts(params, MatchDistribution::kUniform);
  UpdateCosts update_costs = ComputeUpdateCosts(params);

  std::array<double, kNumAlternatives> costs{};
  costs[0] = join_costs.d_i + ctx.updates_per_query * update_costs.u_i;
  costs[1] = join_costs.d_iib + ctx.updates_per_query * update_costs.u_iib;
  // One side scans, the other probes: between I and II; charge the tree
  // cost plus a full scan of the probing side.
  costs[2] = join_costs.d_iib +
             static_cast<double>(params.RelationPages()) * params.c_io +
             ctx.updates_per_query * update_costs.u_iib;
  // Sort both sides (z-decomposition ≈ one pass each) plus the candidate
  // verification ≈ result size.
  costs[3] = 2.0 * static_cast<double>(params.RelationPages()) * params.c_io +
             params.p * static_cast<double>(params.N()) *
                 static_cast<double>(params.N()) * params.c_theta;
  costs[4] = join_costs.d_iii + ctx.updates_per_query * update_costs.u_iii;
  return costs;
}

}  // namespace

JoinPlan PlanJoin(const JoinStatistics& stats, const PlannerContext& ctx) {
  SJ_SPAN_CAT("planner.plan_join", "planner");
  const std::array<double, kNumAlternatives> costs =
      PriceAlternatives(stats, ctx, stats.selectivity);

  JoinPlan plan;
  auto& alts = plan.alternatives;
  alts[0] = {JoinStrategy::kNestedLoop, true, costs[0], false};
  alts[1] = {JoinStrategy::kTreeJoin,
             ctx.r_tree_available && ctx.s_tree_available, costs[1], false};
  alts[2] = {JoinStrategy::kIndexNestedLoop,
             ctx.r_tree_available || ctx.s_tree_available, costs[2], false};
  alts[3] = {JoinStrategy::kSortMergeZOrder, ctx.overlap_like, costs[3],
             false};
  alts[4] = {JoinStrategy::kJoinIndex, ctx.join_index_available, costs[4],
             false};

  plan.strategy = JoinStrategy::kNestedLoop;
  plan.estimated_cost = alts[0].estimated_cost;
  int chosen = 0;
  for (int i = 0; i < kNumAlternatives; ++i) {
    if (alts[i].feasible && alts[i].estimated_cost < plan.estimated_cost) {
      plan.strategy = alts[i].strategy;
      plan.estimated_cost = alts[i].estimated_cost;
      chosen = i;
    }
  }

  // Near-tie detection: re-price the alternatives at p̂ ± stderr and flag
  // every feasible loser whose cost interval overlaps the winner's — the
  // sampled selectivity cannot distinguish them, so the ranking between
  // the two should be treated as a tie by callers.
  if (stats.selectivity_stderr > 0.0) {
    const double lo_p =
        Clamp(stats.selectivity - stats.selectivity_stderr, 1e-15, 1.0);
    const double hi_p =
        Clamp(stats.selectivity + stats.selectivity_stderr, 1e-15, 1.0);
    const std::array<double, kNumAlternatives> lo = PriceAlternatives(
        stats, ctx, lo_p);
    const std::array<double, kNumAlternatives> hi = PriceAlternatives(
        stats, ctx, hi_p);
    const double chosen_min = std::min(lo[chosen], hi[chosen]);
    const double chosen_max = std::max(lo[chosen], hi[chosen]);
    for (int i = 0; i < kNumAlternatives; ++i) {
      if (i == chosen || !alts[i].feasible) continue;
      const double alt_min = std::min(lo[i], hi[i]);
      const double alt_max = std::max(lo[i], hi[i]);
      alts[i].near_tie = alt_min <= chosen_max && chosen_min <= alt_max;
      if (alts[i].near_tie) {
        MetricsRegistry::Global()
            .GetCounter("planner.near_ties")
            ->Increment();
      }
    }
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("planner.plans")->Increment();
  registry
      .GetCounter(std::string("planner.chosen.") +
                  JoinStrategyName(plan.strategy))
      ->Increment();
  int near_ties = 0;
  for (const PlannedAlternative& alt : alts) {
    if (alt.near_tie) ++near_ties;
  }
  SJ_EVENT(kQueryPlanned, kInfo, "chose %s (est. cost %.1f, %d near-tie%s)",
           JoinStrategyName(plan.strategy), plan.estimated_cost, near_ties,
           near_ties == 1 ? "" : "s");
  return plan;
}

}  // namespace spatialjoin
