#ifndef SPATIALJOIN_OBS_TRACE_H_
#define SPATIALJOIN_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/timer.h"

namespace spatialjoin {

/// Per-height observation of one executed query, mirroring the paper's
/// per-level analysis: Algorithm SELECT's QualNodes[j] and Algorithm
/// JOIN's QualPairs[j] are worklists indexed by height j, and the cost
/// model prices each height separately (π_{h,i}·k^{i+1} nodes examined at
/// height i+1, etc.). `worklist` is therefore directly comparable to the
/// model's expected worklist size at this height.
struct TraceLevel {
  int height = 0;
  /// Entries that reached this height's worklist (QualNodes / QualPairs).
  int64_t worklist = 0;
  /// Conservative Θ-operator evaluations at this height. For Algorithm
  /// JOIN this includes the JOIN4 selection passes triggered while
  /// processing this height's QualPairs.
  int64_t theta_upper_tests = 0;
  /// Exact θ-operator evaluations. The generic kernels and SELECT pay one
  /// per Θ-qualifying entry; the flat JOIN kernel only per Θ-qualifying
  /// pair of application objects, the only pairs that can match.
  int64_t theta_tests = 0;
  /// Worklist entries whose children were expanded (Θ-qualified).
  int64_t descended = 0;
  /// Worklist entries cut by the Θ test (subtree never visited).
  int64_t pruned = 0;
  /// Buffer-pool traffic attributed to this height.
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  /// Wall-clock time spent at this height.
  double wall_ns = 0.0;
};

/// Structured record of one executed spatial query: per-level events plus
/// query-wide totals, serializable to JSON. Algorithms fill it when the
/// caller passes a trace (tracing is opt-in; a null trace costs nothing on
/// the hot path).
///
/// A trace belongs to one query on one thread; unlike MetricsRegistry it
/// is not shared state.
class QueryTrace {
 public:
  /// `kind` is "select" or "join"; `detail` is free-form context (the
  /// operator name, the workload, ...).
  explicit QueryTrace(std::string kind, std::string detail = "");

  /// Get-or-create the record for `height`; levels stay sorted by height.
  TraceLevel& Level(int height);

  void set_strategy(std::string strategy) { strategy_ = std::move(strategy); }
  void set_wall_ns(double ns) { wall_ns_ = ns; }
  void set_matches(int64_t n) { matches_ = n; }

  const std::string& kind() const { return kind_; }
  const std::string& detail() const { return detail_; }
  const std::string& strategy() const { return strategy_; }
  double wall_ns() const { return wall_ns_; }
  int64_t matches() const { return matches_; }
  const std::vector<TraceLevel>& levels() const { return levels_; }

  /// Sums over all levels.
  int64_t TotalWorklist() const;
  int64_t TotalThetaUpperTests() const;
  int64_t TotalThetaTests() const;
  int64_t TotalPoolHits() const;
  int64_t TotalPoolMisses() const;
  /// hits / (hits + misses); 0 when no pool traffic was attributed.
  double PoolHitRate() const;

  /// Serializes the trace:
  ///   {"kind": ..., "strategy": ..., "wall_ns": ..., "totals": {...},
  ///    "levels": [{"height": 0, "worklist": 1, ...}, ...]}
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

 private:
  std::string kind_;
  std::string detail_;
  std::string strategy_;
  double wall_ns_ = 0.0;
  int64_t matches_ = 0;
  std::vector<TraceLevel> levels_;
};

/// One level's QueryTrace record, filled the same way by every tree
/// kernel (the generic JOIN and SELECT, the flat kernel): Θ/θ tests and
/// the running query's own pool charges (obs/attribution.h) differenced
/// across the level, and its wall time. Other queries charge their own
/// sinks; outside any sink a level records no pool traffic. A null trace
/// makes it a no-op.
class LevelTrace {
 public:
  /// Takes the query's running Θ/θ totals at level entry.
  LevelTrace(QueryTrace* trace, int64_t theta_upper_tests,
             int64_t theta_tests)
      : trace_(trace),
        charges_(trace != nullptr ? attribution::CurrentCharges() : nullptr),
        theta_upper_before_(theta_upper_tests),
        theta_before_(theta_tests) {
    if (trace_ == nullptr) return;
    if (charges_ != nullptr) before_ = charges_->Snapshot();
    start_ns_ = MonotonicNowNs();
  }

  /// Adds the level to trace level `height`, given the running totals now.
  void RecordLevel(int height, int64_t worklist, int64_t theta_upper_tests,
                   int64_t theta_tests, int64_t pruned, int64_t descended) {
    if (trace_ == nullptr) return;
    TraceLevel& level = trace_->Level(height);
    level.worklist += worklist;
    level.theta_upper_tests += theta_upper_tests - theta_upper_before_;
    level.theta_tests += theta_tests - theta_before_;
    level.pruned += pruned;
    level.descended += descended;
    if (charges_ != nullptr) {
      const attribution::Charges now = charges_->Snapshot();
      level.pool_hits += now.pages_hit - before_.pages_hit;
      level.pool_misses += now.pages_read - before_.pages_read;
    }
    level.wall_ns += static_cast<double>(MonotonicNowNs() - start_ns_);
  }

 private:
  QueryTrace* const trace_;
  const attribution::QueryCharges* const charges_;
  const int64_t theta_upper_before_;
  const int64_t theta_before_;
  attribution::Charges before_;
  int64_t start_ns_ = 0;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_TRACE_H_
