#include "obs/explain.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "costmodel/join_cost.h"
#include "obs/json.h"

namespace spatialjoin {

namespace {

// Predicted cost components of one join strategy under the model,
// separated into the two currencies the engine can actually count.
struct PredictedComponents {
  /// Expected Θ/θ evaluations. The model's assumption S3 (Θ ⇔ θ) charges
  /// conservative and exact tests as one evaluation kind, so the
  /// comparable measured figure is theta_tests + theta_upper_tests.
  double theta_evaluations = 0.0;
  /// Expected page accesses (the Yao-formula terms of §4.2–4.4).
  double page_accesses = 0.0;
};

PredictedComponents Predict(JoinStrategy strategy,
                            const ModelParameters& params,
                            MatchDistribution dist, bool clustered) {
  const double n_tuples = static_cast<double>(params.N());
  const double pages = static_cast<double>(params.RelationPages());
  JoinCosts costs = ComputeJoinCosts(params, dist);
  PredictedComponents out;
  switch (strategy) {
    case JoinStrategy::kNestedLoop: {
      // D_I decomposed (§4.4): N² evaluations; (passes+1) relation scans.
      out.theta_evaluations = n_tuples * n_tuples;
      out.page_accesses =
          (costs.d_i - out.theta_evaluations * params.c_theta) /
          params.c_io;
      break;
    }
    case JoinStrategy::kTreeJoin:
    case JoinStrategy::kParallelTreeJoin: {
      // A pooled run makes the same evaluations and page accesses as the
      // sequential one: parallelism divides wall time, not work.
      double tree_cost = clustered ? costs.d_iib : costs.d_iia;
      out.theta_evaluations = costs.d_ii_compute / params.c_theta;
      out.page_accesses = (tree_cost - costs.d_ii_compute) / params.c_io;
      break;
    }
    case JoinStrategy::kIndexNestedLoop: {
      // Priced as the tree strategy plus one full scan of the probing
      // side (the planner's model, planner.cc).
      double tree_cost = clustered ? costs.d_iib : costs.d_iia;
      out.theta_evaluations = costs.d_ii_compute / params.c_theta;
      out.page_accesses =
          (tree_cost - costs.d_ii_compute) / params.c_io + pages;
      break;
    }
    case JoinStrategy::kSortMergeZOrder:
    case JoinStrategy::kPartitionedJoin: {
      // One partitioning pass over each relation (z-decomposition or the
      // PBSM grid), then p·N² candidate verifications (the planner's
      // model for sort-merge).
      out.theta_evaluations = params.p * n_tuples * n_tuples;
      out.page_accesses = 2.0 * pages;
      break;
    }
    case JoinStrategy::kJoinIndex: {
      // D_III is pure I/O: the index was precomputed, no θ at query time.
      out.theta_evaluations = 0.0;
      out.page_accesses = costs.d_iii / params.c_io;
      break;
    }
  }
  return out;
}

double Residual(double measured, double predicted) {
  if (predicted > 0.0) return measured / predicted;
  if (measured == 0.0) return 1.0;
  return std::numeric_limits<double>::infinity();
}

ExplainRow MakeRow(std::string name, double predicted, double measured) {
  ExplainRow row;
  row.name = std::move(name);
  row.predicted = predicted;
  row.measured = measured;
  row.residual = Residual(measured, predicted);
  return row;
}

}  // namespace

MeasuredJoin MeasureJoin(const JoinResult& result, const IoStats& io_delta,
                         const BufferPoolStats& pool_delta, double wall_ns) {
  MeasuredJoin measured;
  measured.theta_tests = result.theta_tests;
  measured.theta_upper_tests = result.theta_upper_tests;
  measured.page_reads = io_delta.page_reads;
  measured.page_writes = io_delta.page_writes;
  measured.pool_hits = pool_delta.hits;
  measured.pool_misses = pool_delta.misses;
  measured.matches = static_cast<int64_t>(result.matches.size());
  measured.wall_ns = wall_ns;
  return measured;
}

const ExplainRow* ExplainReport::Find(std::string_view name) const {
  for (const ExplainRow& row : rows) {
    SJ_BOUNDED_WORK;  // one row per strategy (fixed enum)
    if (row.name == name) return &row;
  }
  return nullptr;
}

ExplainReport ExplainAnalyzeJoin(JoinStrategy executed, const JoinPlan& plan,
                                 const ModelParameters& params,
                                 MatchDistribution dist,
                                 const MeasuredJoin& measured,
                                 const QueryTrace* trace, bool clustered) {
  ExplainReport report;
  report.executed = executed;
  report.planned = plan.strategy;
  report.distribution = dist;
  report.params = params;
  report.plan = plan;
  report.wall_ns = measured.wall_ns;
  report.matches = measured.matches;
  int64_t pool_total = measured.pool_hits + measured.pool_misses;
  report.pool_hit_rate =
      pool_total == 0 ? 0.0
                      : static_cast<double>(measured.pool_hits) /
                            static_cast<double>(pool_total);

  PredictedComponents predicted = Predict(executed, params, dist, clustered);
  double measured_evals = static_cast<double>(measured.theta_tests +
                                              measured.theta_upper_tests);
  double measured_pages =
      static_cast<double>(measured.page_reads + measured.page_writes);
  report.rows.push_back(
      MakeRow("theta_evaluations", predicted.theta_evaluations,
              measured_evals));
  report.rows.push_back(
      MakeRow("page_accesses", predicted.page_accesses, measured_pages));
  report.rows.push_back(MakeRow(
      "total_cost",
      predicted.theta_evaluations * params.c_theta +
          predicted.page_accesses * params.c_io,
      measured_evals * params.c_theta + measured_pages * params.c_io));

  // The trace view is attached lazily at render time; copy the per-level
  // records now so the report owns its data.
  if (trace != nullptr) {
    report.trace_levels.assign(trace->levels().begin(),
                                trace->levels().end());
    report.has_trace = true;
  }
  return report;
}

std::string ExplainReport::ToString() const {
  std::ostringstream os;
  char buf[160];
  os << "EXPLAIN ANALYZE — " << JoinStrategyName(executed) << " under "
     << MatchDistributionName(distribution) << " (p=" << params.p
     << ", N=" << params.N() << ", n=" << params.n << ", k=" << params.k
     << ")\n";
  if (planned != executed) {
    os << "  note: planner would choose " << JoinStrategyName(planned)
       << "\n";
  }
  std::snprintf(buf, sizeof(buf), "  %-18s %14s %14s %10s\n", "metric",
                "predicted", "measured", "residual");
  os << buf;
  for (const ExplainRow& row : rows) {
    std::snprintf(buf, sizeof(buf), "  %-18s %14.4e %14.4e %10.4f\n",
                  row.name.c_str(), row.predicted, row.measured,
                  row.residual);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  matches=%lld  wall=%.3f ms  pool hit rate=%.1f%%\n",
                static_cast<long long>(matches), wall_ns / 1e6,
                100.0 * pool_hit_rate);
  os << buf;
  for (const TraceLevel& level : trace_levels) {
    std::snprintf(
        buf, sizeof(buf),
        "  level %2d: worklist=%lld Theta=%lld theta=%lld descended=%lld "
        "pruned=%lld pool=%lld/%lld\n",
        level.height, static_cast<long long>(level.worklist),
        static_cast<long long>(level.theta_upper_tests),
        static_cast<long long>(level.theta_tests),
        static_cast<long long>(level.descended),
        static_cast<long long>(level.pruned),
        static_cast<long long>(level.pool_hits),
        static_cast<long long>(level.pool_misses));
    os << buf;
  }
  os << plan.ToString() << "\n";
  return os.str();
}

void ExplainReport::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("executed", JoinStrategyName(executed));
  w.KV("planned", JoinStrategyName(planned));
  w.KV("distribution", MatchDistributionName(distribution));
  w.Key("model");
  w.BeginObject();
  w.KV("p", params.p);
  w.KV("n", static_cast<int64_t>(params.n));
  w.KV("k", static_cast<int64_t>(params.k));
  w.KV("N", params.N());
  w.KV("c_theta", params.c_theta);
  w.KV("c_io", params.c_io);
  w.EndObject();
  w.Key("rows");
  w.BeginArray();
  for (const ExplainRow& row : rows) {
    w.BeginObject();
    w.KV("name", row.name);
    w.KV("predicted", row.predicted);
    w.KV("measured", row.measured);
    w.KV("residual", row.residual);
    w.EndObject();
  }
  w.EndArray();
  w.KV("matches", matches);
  w.KV("wall_ns", wall_ns);
  w.KV("pool_hit_rate", pool_hit_rate);
  if (has_trace) {
    w.Key("levels");
    w.BeginArray();
    for (const TraceLevel& level : trace_levels) {
      w.BeginObject();
      w.KV("height", static_cast<int64_t>(level.height));
      w.KV("worklist", level.worklist);
      w.KV("theta_upper_tests", level.theta_upper_tests);
      w.KV("theta_tests", level.theta_tests);
      w.KV("descended", level.descended);
      w.KV("pruned", level.pruned);
      w.KV("pool_hits", level.pool_hits);
      w.KV("pool_misses", level.pool_misses);
      w.KV("wall_ns", level.wall_ns);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  os << '\n';
}

std::string ExplainReport::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

}  // namespace spatialjoin
