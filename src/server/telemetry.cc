#include "server/telemetry.h"

#include <algorithm>
#include <sstream>

#include "common/analysis_annotations.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/timer.h"

namespace spatialjoin {
namespace server {

namespace {

// Live quantiles cover the last 4 seconds: 16 slices × 250ms. Wide
// enough that a 1 Hz sj_top poll always has data, narrow enough that a
// load spike ages out of p99 within seconds of ending.
constexpr int kWindowSlices = 16;
constexpr int64_t kSliceNs = 250LL * 1000 * 1000;

constexpr int64_t kDefaultSlowEventThresholdNs = 10LL * 1000 * 1000;

std::string ServiceSnapshotProvider() {
  return ServiceTelemetry::Global().ServiceSectionJson();
}

}  // namespace

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kDeadline:
      return "deadline";
    case QueryOutcome::kOversized:
      return "oversized";
  }
  return "unknown";
}

ServiceTelemetry& ServiceTelemetry::Global() {
  // Leaked on purpose, like the registry it mirrors into: queries may
  // still be completing while static destructors run.
  // sj-lint: allow(naked-new)
  static ServiceTelemetry* telemetry = new ServiceTelemetry();
  return *telemetry;
}

ServiceTelemetry::ServiceTelemetry()
    : sessions_opened_(
          MetricsRegistry::Global().GetCounter("server.sessions.opened")),
      sessions_closed_(
          MetricsRegistry::Global().GetCounter("server.sessions.closed")),
      protocol_errors_(
          MetricsRegistry::Global().GetCounter("server.protocol.errors")),
      write_failures_(MetricsRegistry::Global().GetCounter(
          "server.session.write_failures")),
      cancel_requested_(MetricsRegistry::Global().GetCounter(
          "server.query.cancel_requested")),
      query_ok_(MetricsRegistry::Global().GetCounter("server.query.ok")),
      query_stopped_(
          MetricsRegistry::Global().GetCounter("server.query.stopped")),
      query_oversized_(MetricsRegistry::Global().GetCounter(
          "server.query.oversized_result")),
      latency_window_(kWindowSlices, kSliceNs),
      queue_wait_window_(kWindowSlices, kSliceNs),
      slow_event_threshold_ns_(kDefaultSlowEventThresholdNs) {
  recent_.reserve(kRecentRing);
  slow_by_latency_.reserve(kSlowRing);
  FlightRecorder::SetServiceSnapshotProvider(&ServiceSnapshotProvider);
}

void ServiceTelemetry::OnSessionOpened() { sessions_opened_->Increment(); }
void ServiceTelemetry::OnSessionClosed() { sessions_closed_->Increment(); }
void ServiceTelemetry::OnProtocolError() { protocol_errors_->Increment(); }
void ServiceTelemetry::OnWriteFailure() { write_failures_->Increment(); }
void ServiceTelemetry::OnCancelRequested() { cancel_requested_->Increment(); }

void ServiceTelemetry::SetSlowEventThresholdNs(int64_t ns) {
  MutexLock lock(mu_);
  slow_event_threshold_ns_ = ns;
}

namespace {

// Inserts `record` into a worst-K ring ordered by wall time (descending),
// after expiring entries past the retention horizon. Returns true when
// the record made the ring.
bool InsertSlow(std::vector<QueryRecord>* ring, const QueryRecord& record,
                int64_t now_ns) {
  ring->erase(std::remove_if(ring->begin(), ring->end(),
                             [now_ns](const QueryRecord& r) {
                               return now_ns - r.end_ts_ns >
                                      ServiceTelemetry::kSlowRetentionNs;
                             }),
              ring->end());
  if (ring->size() >= static_cast<size_t>(ServiceTelemetry::kSlowRing)) {
    // Ring full: the record must beat the current fastest entry.
    auto fastest = std::min_element(
        ring->begin(), ring->end(),
        [](const QueryRecord& a, const QueryRecord& b) {
          return a.wall_ns < b.wall_ns;
        });
    if (record.wall_ns <= fastest->wall_ns) return false;
    *fastest = record;
  } else {
    ring->push_back(record);
  }
  return true;
}

}  // namespace

void ServiceTelemetry::RecordQuery(const QueryRecord& record) {
  // Registry mirrors of the outcome counters.
  switch (record.outcome) {
    case QueryOutcome::kOk:
      query_ok_->Increment();
      break;
    case QueryOutcome::kCancelled:
    case QueryOutcome::kDeadline:
      query_stopped_->Increment();
      break;
    case QueryOutcome::kOversized:
      query_oversized_->Increment();
      break;
  }
  latency_window_.Record(record.wall_ns, record.end_ts_ns);
  queue_wait_window_.Record(record.queue_wait_ns, record.end_ts_ns);

  bool emit_slow_event = false;
  {
    MutexLock lock(mu_);
    // Recent ring: newest overwrites oldest.
    if (recent_.size() < static_cast<size_t>(kRecentRing)) {
      recent_.push_back(record);
    } else {
      recent_[recent_next_] = record;
    }
    recent_next_ = (recent_next_ + 1) % static_cast<size_t>(kRecentRing);

    const bool entered_latency_ring =
        InsertSlow(&slow_by_latency_, record, record.end_ts_ns);
    emit_slow_event =
        entered_latency_ring && record.wall_ns >= slow_event_threshold_ns_;
  }

  if (emit_slow_event) {
    SJ_EVENT(kSlowQuery, kWarn,
             "sess%d req%llu %s %s %.1fms", record.session_id,
             static_cast<unsigned long long>(record.request_id),
             record.strategy, QueryOutcomeName(record.outcome),
             static_cast<double>(record.wall_ns) / 1e6);
  }
}

void ServiceTelemetry::WriteRecordJson(JsonWriter* w,
                                       const QueryRecord& r) const {
  w->BeginObject();
  w->KV("request_id", static_cast<int64_t>(r.request_id));
  w->KV("session", static_cast<int64_t>(r.session_id));
  w->KV("dataset", static_cast<int64_t>(r.dataset_id));
  w->KV("kind", r.is_join ? "join" : "select");
  w->KV("strategy", r.strategy);
  w->KV("outcome", QueryOutcomeName(r.outcome));
  w->KV("end_ts_ns", r.end_ts_ns);
  w->KV("wall_ns", r.wall_ns);
  w->KV("queue_wait_ns", r.queue_wait_ns);
  w->KV("pool_tasks", r.charges.pool_tasks);
  w->KV("pages_read", r.charges.pages_read);
  w->KV("pages_hit", r.charges.pages_hit);
  w->KV("pairs_examined", r.pairs_examined);
  w->KV("theta_tests", r.theta_tests);
  w->KV("qual_pairs", r.qual_pairs);
  w->KV("nodes_accessed", r.nodes_accessed);
  w->KV("matches", r.matches);
  w->EndObject();
}

ServiceTelemetry::Retained ServiceTelemetry::SnapshotRetained() const {
  Retained snap;
  MutexLock lock(mu_);
  // Unroll the ring oldest-first while copying, so serialization needs
  // no cursor.
  const size_t n = recent_.size();
  const size_t start = n < static_cast<size_t>(kRecentRing) ? 0 : recent_next_;
  snap.recent.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SJ_BOUNDED_WORK;  // ring copy capped at kRecentRing
    snap.recent.push_back(recent_[(start + i) % n]);
  }
  snap.slow_by_latency = slow_by_latency_;
  return snap;
}

void ServiceTelemetry::WriteSlowRingJson(JsonWriter* w, const Retained& snap,
                                         int64_t now_ns) const {
  std::vector<QueryRecord> ring = snap.slow_by_latency;
  // Expired entries are dropped lazily on insert; a snapshot of a quiet
  // server must not resurrect them, so filter here too.
  ring.erase(std::remove_if(ring.begin(), ring.end(),
                            [now_ns](const QueryRecord& r) {
                              return now_ns - r.end_ts_ns > kSlowRetentionNs;
                            }),
             ring.end());
  std::sort(ring.begin(), ring.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.wall_ns > b.wall_ns;
            });
  w->Key("slow_by_latency");
  w->BeginArray();
  for (const QueryRecord& r : ring) {
    SJ_BOUNDED_WORK;  // ring copy capped at kSlowRing
    WriteRecordJson(w, r);
  }
  w->EndArray();
}

namespace {

void WriteWindowJson(JsonWriter* w, const char* key,
                     const WindowedHistogram::Snapshot& snap) {
  w->Key(key);
  w->BeginObject();
  w->KV("window_ns", snap.window_ns);
  w->KV("count", snap.count);
  w->KV("mean_ns", snap.mean());
  w->KV("p50_ns", snap.QuantileUpperBound(0.5));
  w->KV("p90_ns", snap.QuantileUpperBound(0.9));
  w->KV("p99_ns", snap.QuantileUpperBound(0.99));
  w->EndObject();
}

}  // namespace

void ServiceTelemetry::WriteStatsJson(
    std::ostream& os, const QueryScheduler::Stats& scheduler, int max_inflight,
    const exec::ThreadPool::Stats& pool) const {
  const int64_t now_ns = MonotonicNowNs();
  JsonWriter w(os);
  w.BeginObject();
  w.KV("stats_version", int64_t{3});
  w.KV("now_ns", now_ns);
  w.Key("scheduler");
  w.BeginObject();
  w.KV("admitted", scheduler.admitted);
  w.KV("rejected", scheduler.rejected);
  w.KV("completed", scheduler.completed);
  w.KV("inflight", scheduler.inflight);
  w.KV("peak_inflight", scheduler.peak_inflight);
  w.KV("max_inflight", static_cast<int64_t>(max_inflight));
  w.EndObject();
  w.Key("pool");
  w.BeginObject();
  w.KV("workers", static_cast<int64_t>(pool.workers));
  w.KV("tasks_submitted", pool.tasks_submitted);
  w.KV("tasks_executed", pool.tasks_executed);
  w.KV("tasks_stolen", pool.tasks_stolen);
  w.KV("tasks_queued", pool.tasks_queued);
  w.EndObject();
  w.Key("sessions");
  w.BeginObject();
  w.KV("opened", sessions_opened_->Value());
  w.KV("closed", sessions_closed_->Value());
  w.KV("open", sessions_opened_->Value() - sessions_closed_->Value());
  w.KV("protocol_errors", protocol_errors_->Value());
  w.KV("write_failures", write_failures_->Value());
  w.EndObject();
  w.Key("queries");
  w.BeginObject();
  w.KV("ok", query_ok_->Value());
  w.KV("stopped", query_stopped_->Value());
  w.KV("oversized", query_oversized_->Value());
  w.KV("cancel_requested", cancel_requested_->Value());
  w.EndObject();
  WriteWindowJson(&w, "latency", latency_window_.Snap(now_ns));
  WriteWindowJson(&w, "queue_wait", queue_wait_window_.Snap(now_ns));
  const Retained snap = SnapshotRetained();
  w.Key("recent");
  w.BeginArray();
  for (const QueryRecord& r : snap.recent) {
    SJ_BOUNDED_WORK;  // ring copy capped at kRecentRing
    WriteRecordJson(&w, r);
  }
  w.EndArray();
  WriteSlowRingJson(&w, snap, now_ns);
  w.EndObject();
  os << '\n';
}

std::string ServiceTelemetry::ServiceSectionJson() const {
  const int64_t now_ns = MonotonicNowNs();
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("queries");
  w.BeginObject();
  w.KV("ok", query_ok_->Value());
  w.KV("stopped", query_stopped_->Value());
  w.KV("oversized", query_oversized_->Value());
  w.EndObject();
  WriteWindowJson(&w, "latency", latency_window_.Snap(now_ns));
  WriteSlowRingJson(&w, SnapshotRetained(), now_ns);
  w.EndObject();
  return os.str();
}

void ServiceTelemetry::Reset() {
  latency_window_.Reset();
  queue_wait_window_.Reset();
  MutexLock lock(mu_);
  recent_.clear();
  recent_next_ = 0;
  slow_by_latency_.clear();
  slow_event_threshold_ns_ = kDefaultSlowEventThresholdNs;
}

}  // namespace server
}  // namespace spatialjoin
