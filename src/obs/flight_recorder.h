#ifndef SPATIALJOIN_OBS_FLIGHT_RECORDER_H_
#define SPATIALJOIN_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>

namespace spatialjoin {

/// Flight recorder (DESIGN.md §10): the engine's black box. Whatever
/// kills the process — an SJ_CHECK failure, a fatal Status on a storage
/// path, a SIGSEGV — the recorder writes one self-describing JSON dump
/// (`*.flightdump.json`) holding the structured event-log tail
/// (obs/event_log.h), a drain of every thread's span ring, the metrics
/// registry plus the last few periodic snapshot deltas, process gauges,
/// and the activity table (active queries / pool workers with their
/// heartbeats). `tools/sj_inspect` validates and renders dumps offline.
///
/// Three triggers share one dump serializer:
///  * fatal paths — the SJ_CHECK observer and the SIGSEGV/SIGBUS/SIGABRT/
///    SIGFPE/SIGILL handlers. The signal path is async-signal-safe by
///    construction: it only open()/write()s pre-serialized seqlock
///    buffers (refreshed by the watchdog) and lock-free rings, with
///    hand-rolled integer/string formatting — no malloc, no stdio, no
///    locks (the §10 review checklist enforces this).
///  * the watchdog thread — detects a stalled heartbeat or an
///    over-deadline query and dumps instead of letting the hang stay
///    silent.
///  * FlightRecorder::Dump() — explicit (benches pass `--flight-dump`).
struct FlightRecorderOptions {
  /// Where the dump is written. Every trigger (re)writes this one file;
  /// the newest incident wins.
  std::string dump_path = "sj.flightdump.json";
  bool install_signal_handlers = true;
  /// Start the watchdog thread as part of Install().
  bool start_watchdog = false;
  /// Watchdog scan (and pre-serialized-buffer refresh) period.
  int64_t watchdog_interval_ms = 100;
  /// A non-idle activity whose heartbeat is older than this is stalled.
  int64_t stall_budget_ns = int64_t{10} * 1000 * 1000 * 1000;
};

class FlightRecorder {
 public:
  /// Arms the recorder: remembers the dump path and options, installs the
  /// fatal-signal handlers (on an alternate stack) and the SJ_CHECK dump
  /// observer, and takes the first pre-serialized snapshot. Idempotent;
  /// later calls re-point the dump path and options. Also invoked
  /// automatically at static-init time when the SJ_FLIGHT_DUMP
  /// environment variable names a dump path.
  static void Install(const FlightRecorderOptions& options);
  static bool installed();

  /// Writes a dump now (full refresh first). `kind` should be one of the
  /// reason kinds sj_inspect knows ("explicit", "watchdog"); `detail` is
  /// free-form. Returns false when the file cannot be written or another
  /// dump is already in progress.
  static bool Dump(const char* kind, const char* detail);

  /// Re-serializes the crash-path buffers (process info, metrics
  /// snapshot + delta, span-ring directory) now. Called by Install, every
  /// watchdog tick, and every non-signal dump.
  static void RefreshPreSerialized();

  /// Registers a provider for the dump's `service` section (the query
  /// service's slow-query rings and totals; server/telemetry.h registers
  /// itself on first use). The provider runs on refresh paths — watchdog
  /// tick or explicit dump, never the signal path, which only writes the
  /// pre-serialized buffer — and must return one JSON value. Null
  /// unregisters; dumps then carry `"service": null`.
  static void SetServiceSnapshotProvider(std::string (*provider)());

  /// Watchdog thread control. Start is idempotent; Stop joins the thread
  /// (tests stop it so process teardown stays deterministic).
  static void StartWatchdog();
  static void StopWatchdog();
  static bool watchdog_running();

  /// Counters for tests and the dump's own "watchdog" section.
  static int64_t watchdog_ticks();
  static int64_t watchdog_stalls();
  static int64_t watchdog_deadline_hits();
  static int64_t dumps_written();
};

/// RAII registration of one unit of work in the recorder's activity
/// table: a query execution, a pool worker, a partition phase. The dump
/// lists active scopes (that is the "what was running" section of the
/// black box), and the watchdog checks each scope's heartbeat and
/// deadline. `kind` and `label` must be string literals (or otherwise
/// static); per-instance text goes through SetDetail, which copies.
///
/// The scope registers itself in a thread-local stack, so code deep in a
/// traversal loop can stamp the innermost enclosing scope with
/// `ActivityScope::BeatThisThread()` without plumbing a pointer through
/// every layer. Heartbeat protocol (DESIGN.md §10): stamp at level
/// boundaries in SELECT/JOIN, per PBSM tile, and per pool task — often
/// enough that a healthy query is never stale, coarse enough to stay off
/// the per-node hot path.
class ActivityScope {
 public:
  /// `deadline_budget_ns` > 0 arms an absolute deadline of now + budget;
  /// the watchdog reports (and dumps) when the scope outlives it.
  ActivityScope(const char* kind, const char* label,
                int64_t deadline_budget_ns = 0);
  ~ActivityScope();

  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

  /// Stamps the heartbeat with the current time.
  void Beat();

  /// Marks the scope idle (a parked pool worker): the watchdog skips
  /// stall checks until the next Beat()/SetIdle(false).
  void SetIdle(bool idle);

  /// Copies free-form context (worker name, operator) into the slot.
  void SetDetail(const char* detail);

  /// Beat() on the calling thread's innermost scope; no-op without one.
  static void BeatThisThread();

 private:
  int slot_ = -1;
  ActivityScope* prev_ = nullptr;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_FLIGHT_RECORDER_H_
