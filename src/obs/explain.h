#ifndef SPATIALJOIN_OBS_EXPLAIN_H_
#define SPATIALJOIN_OBS_EXPLAIN_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.h"
#include "core/spatial_join.h"
#include "costmodel/distributions.h"
#include "costmodel/parameters.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace spatialjoin {

/// EXPLAIN ANALYZE for spatial joins: the paper's analytical cost model
/// (Yao-formula page accesses, expected Θ/θ evaluations under a matching
/// distribution) rendered side by side with what an executed query
/// actually did, per metric, with the residual ratio measured/predicted.
/// This turns the repo's "empirical engine validates the analytical
/// model" claim into an inspectable per-query artifact. The model prices
/// every test of the paper's algorithm, as the generic kernel makes them;
/// on FrozenTree inputs the flat kernel skips the tests that cannot emit
/// a match, so there measured theta_evaluations drops against the same
/// prediction and its residual falls below the generic kernel's.

/// Measured totals of one executed join, collected by differencing the
/// storage stat structs around the execution.
struct MeasuredJoin {
  int64_t theta_tests = 0;
  int64_t theta_upper_tests = 0;
  int64_t page_reads = 0;
  int64_t page_writes = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t matches = 0;
  double wall_ns = 0.0;
};

/// Convenience assembly from the engine's existing stat views: the join's
/// own counters, the disk I/O delta, the pool delta, and the wall clock
/// (typically QueryTrace::wall_ns(), stamped by ExecuteJoin).
MeasuredJoin MeasureJoin(const JoinResult& result, const IoStats& io_delta,
                         const BufferPoolStats& pool_delta, double wall_ns);

/// One predicted-vs-measured line of the report.
struct ExplainRow {
  std::string name;
  double predicted = 0.0;
  double measured = 0.0;
  /// measured / predicted; 1.0 when both are 0, +inf when only the
  /// prediction is 0. On any workload where the model predicts nonzero
  /// cost (every real workload), the ratio is finite.
  double residual = 0.0;
};

/// The report: strategy, model instantiation, rows, and context.
struct ExplainReport {
  /// What actually ran.
  JoinStrategy executed = JoinStrategy::kNestedLoop;
  /// What the planner would pick for these statistics.
  JoinStrategy planned = JoinStrategy::kNestedLoop;
  MatchDistribution distribution = MatchDistribution::kUniform;
  ModelParameters params;
  std::vector<ExplainRow> rows;
  double wall_ns = 0.0;
  double pool_hit_rate = 0.0;
  int64_t matches = 0;
  /// The full plan ranking, for the rendered report.
  JoinPlan plan;
  /// Copied per-level trace records (empty when no trace was supplied).
  std::vector<TraceLevel> trace_levels;
  bool has_trace = false;

  /// Row by name ("theta_evaluations", "page_accesses", "total_cost");
  /// nullptr if absent.
  const ExplainRow* Find(std::string_view name) const;

  /// Human-readable rendering (fixed-width table plus the plan ranking
  /// and, when a trace was supplied, one line per traversal level).
  std::string ToString() const;

  /// JSON rendering; embeds the trace when one was supplied.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
};

/// Builds the report. `executed` names the strategy that actually ran
/// (it may differ from plan.strategy — the report records both).
/// `params`/`dist` instantiate the predicted side; use
/// FitModelParameters(stats) to map the observed workload onto the
/// model's balanced tree. `clustered` selects the IIb (clustered) vs IIa
/// (unclustered) page-access prediction for the tree strategies; the
/// engine's benches store relations clustered, so it defaults true.
/// `trace`, when given, is embedded in the JSON/text renderings.
ExplainReport ExplainAnalyzeJoin(JoinStrategy executed, const JoinPlan& plan,
                                 const ModelParameters& params,
                                 MatchDistribution dist,
                                 const MeasuredJoin& measured,
                                 const QueryTrace* trace = nullptr,
                                 bool clustered = true);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_EXPLAIN_H_
