#ifndef SPATIALJOIN_CORE_PLANNER_H_
#define SPATIALJOIN_CORE_PLANNER_H_

#include <string>

#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "costmodel/parameters.h"
#include "relational/relation.h"

namespace spatialjoin {

/// Input statistics for strategy selection, obtainable by sampling.
struct JoinStatistics {
  int64_t r_tuples = 0;
  int64_t s_tuples = 0;
  /// Estimated P(θ(r, s)) for a random pair — the model's p.
  double selectivity = 0.0;
  /// Standard error of the selectivity estimate, √(p̂(1−p̂)/samples).
  /// Zero when the selectivity was supplied rather than sampled; the
  /// planner then treats only exact cost ties as ties.
  double selectivity_stderr = 0.0;
  /// θ evaluations spent estimating (the planner's own cost).
  int64_t sample_tests = 0;
};

/// Estimates join selectivity by θ-testing `sample_pairs` random tuple
/// pairs (with replacement, seeded — deterministic).
JoinStatistics EstimateJoinStatistics(const Relation& r, size_t col_r,
                                      const Relation& s, size_t col_s,
                                      const ThetaOperator& op,
                                      int sample_pairs, uint64_t seed);

/// Maps observed relation sizes and selectivity onto the paper's balanced
/// k-ary model tree: keeps the paper's fan-out, derives the height from N,
/// clamps p into (0, 1]. Used by the planner to price strategies and by
/// ExplainAnalyze to produce the predicted side of its report.
ModelParameters FitModelParameters(const JoinStatistics& stats);

/// What the planner may choose between, and the workload context that
/// shifts the trade-off (the paper's §5: "join indices are only
/// efficient if update ratios are very low and join selectivities are
/// comparatively low").
struct PlannerContext {
  bool r_tree_available = false;
  bool s_tree_available = false;
  bool join_index_available = false;
  /// θ is overlap-like (sort-merge on z-order is sound).
  bool overlap_like = false;
  /// Expected inserts per join query; join-index maintenance is charged
  /// at U_III per insert, tree maintenance at U_IIb.
  double updates_per_query = 0.0;
};

/// One scored alternative, for explainability.
struct PlannedAlternative {
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  bool feasible = false;
  double estimated_cost = 0.0;
  /// The cost gap to the chosen plan is within the sampling noise: the
  /// cost intervals obtained by re-pricing at p̂ ± stderr overlap the
  /// winner's interval, so the ranking between the two is not
  /// statistically meaningful.  Always false on the chosen strategy.
  bool near_tie = false;
};

/// The chosen plan plus all scored alternatives. The pooled strategies
/// are not priced: the model has no term for an in-memory run's CPU time.
struct JoinPlan {
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  double estimated_cost = 0.0;
  PlannedAlternative alternatives[5];
  /// Renders the ranking for diagnostics.
  std::string ToString() const;
};

/// Chooses the cheapest feasible strategy by instantiating the paper's
/// cost model at the observed relation sizes and estimated selectivity
/// (UNIFORM distribution — the planner has no locality information),
/// amortizing maintenance per `updates_per_query`. Nested loop is always
/// feasible, so a plan always exists.
JoinPlan PlanJoin(const JoinStatistics& stats, const PlannerContext& ctx);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_PLANNER_H_
