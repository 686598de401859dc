#ifndef SPATIALJOIN_SERVER_TELEMETRY_H_
#define SPATIALJOIN_SERVER_TELEMETRY_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/scheduler.h"

namespace spatialjoin {
namespace server {

/// Service telemetry (DESIGN.md §13).
///
/// The process-wide sink for everything the query service knows about
/// itself: per-query records (strategy, charges, the query's own Θ/θ
/// counts, outcome), rolling windowed latency quantiles, and the recent
/// and slow-query rings. Three consumers read it:
///   * the STATS protocol message (WriteStatsJson) — live introspection
///     for sj_top and scripts;
///   * the flight recorder (ServiceSectionJson) — the same slow-query
///     evidence embedded in post-mortem dumps;
///   * the metrics registry — session, protocol and outcome totals
///     mirrored into ordinary counters so bench artifacts carry them with
///     no protocol. Admission counts live in QueryScheduler::Stats only.
///
/// This is also the *only* file under src/server/ allowed to touch the
/// MetricsRegistry (enforced by sj_lint's `metrics-in-server` rule):
/// request paths report through the On*/RecordQuery methods here or
/// charge through the attribution scope, never by poking counters
/// directly — one choke point keeps naming and double-count discipline.

/// How a query left the server.
enum class QueryOutcome : uint8_t {
  kOk = 0,
  kCancelled,
  kDeadline,
  kOversized,  // ran fine, result exceeded the frame's pair capacity
};
const char* QueryOutcomeName(QueryOutcome outcome);

/// Everything retained about one completed query.
struct QueryRecord {
  uint64_t request_id = 0;
  int session_id = -1;
  uint32_t dataset_id = 0;
  bool is_join = false;
  const char* strategy = "";  // static storage (JoinStrategyName/...)
  QueryOutcome outcome = QueryOutcome::kOk;
  int64_t end_ts_ns = 0;       ///< MonotonicNowNs at completion
  int64_t wall_ns = 0;         ///< admit → completion
  int64_t queue_wait_ns = 0;   ///< admit → body start
  attribution::Charges charges{};
  // The query's own counts, from its JoinResult.
  int64_t pairs_examined = 0;  ///< Θ-filter tests (theta_upper_tests)
  int64_t theta_tests = 0;     ///< exact-geometry tests actually run
  int64_t qual_pairs = 0;      ///< QualPairs entries (qual_pairs_examined)
  int64_t nodes_accessed = 0;
  int64_t matches = 0;
};

class ServiceTelemetry {
 public:
  /// Ring capacities; small enough that a full STATS snapshot stays a
  /// few tens of KB, far under the frame payload cap.
  static constexpr int kRecentRing = 32;
  static constexpr int kSlowRing = 16;
  /// Slow-ring entries older than this age out (the ring holds the worst
  /// *recent* queries, not the worst ever).
  static constexpr int64_t kSlowRetentionNs = 60LL * 1000 * 1000 * 1000;

  static ServiceTelemetry& Global();

  ServiceTelemetry(const ServiceTelemetry&) = delete;
  ServiceTelemetry& operator=(const ServiceTelemetry&) = delete;

  // --- Session / protocol accounting ------------------------------------
  void OnSessionOpened();
  void OnSessionClosed();
  void OnProtocolError();
  void OnWriteFailure();
  void OnCancelRequested();

  /// Retains `record`, updates windows/rings, mirrors the outcome
  /// counters, and emits a kSlowQuery event if the record enters the
  /// slow-by-latency ring above the event threshold.
  void RecordQuery(const QueryRecord& record);

  /// The STATS reply document. Scheduler/pool snapshots are passed in by
  /// the caller (the session holds both pointers; telemetry deliberately
  /// does not).
  void WriteStatsJson(std::ostream& os, const QueryScheduler::Stats& scheduler,
                      int max_inflight,
                      const exec::ThreadPool::Stats& pool) const;

  /// The flight-dump `service` section: query totals + slow ring.
  /// Called by the flight recorder's refresh path (registered lazily by
  /// Global()); must not dump or refresh re-entrantly.
  std::string ServiceSectionJson() const;

  /// Minimum wall time before a slow-ring entry also logs a kSlowQuery
  /// event (default 10ms; tests set 0 to pin the emission path).
  void SetSlowEventThresholdNs(int64_t ns);

  /// Zeroes rings and windows (registry instruments are the caller's to
  /// reset). Tests and benches start measurements clean here.
  void Reset();

 private:
  ServiceTelemetry();

  /// Copy of everything mu_ guards, taken in one short critical section.
  /// Serialization happens on the copy, outside the lock — a STATS poll
  /// must never stall RecordQuery on the query-completion path for the
  /// duration of a JSON render (recent is reordered oldest-first here).
  struct Retained {
    std::vector<QueryRecord> recent;
    std::vector<QueryRecord> slow_by_latency;
  };
  Retained SnapshotRetained() const;

  void WriteRecordJson(JsonWriter* w, const QueryRecord& r) const;
  void WriteSlowRingJson(JsonWriter* w, const Retained& snap,
                         int64_t now_ns) const;

  // Registry mirrors, resolved once (pointers are process-lifetime).
  Counter* const sessions_opened_;
  Counter* const sessions_closed_;
  Counter* const protocol_errors_;
  Counter* const write_failures_;
  Counter* const cancel_requested_;
  Counter* const query_ok_;
  Counter* const query_stopped_;
  Counter* const query_oversized_;

  // Live windows: last ~4s of completed-query latency and queue wait.
  WindowedHistogram latency_window_;
  WindowedHistogram queue_wait_window_;

  mutable Mutex mu_;
  int64_t slow_event_threshold_ns_ SJ_GUARDED_BY(mu_);
  std::vector<QueryRecord> recent_ SJ_GUARDED_BY(mu_);   // ring, newest last
  size_t recent_next_ SJ_GUARDED_BY(mu_) = 0;
  std::vector<QueryRecord> slow_by_latency_ SJ_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_TELEMETRY_H_
