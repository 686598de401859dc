#ifndef SPATIALJOIN_OBS_EVENT_LOG_H_
#define SPATIALJOIN_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace spatialjoin {

/// Structured event log (DESIGN.md §10): a fixed-capacity lock-free ring
/// of typed records, always compiled in. Library code reports rare,
/// noteworthy moments — an error Status constructed, an audit violation,
/// a buffer-pool flush failure — through SJ_EVENT instead of writing
/// ad-hoc lines to stderr, so the last few thousand events are always
/// available to the flight recorder's post-mortem dump
/// (obs/flight_recorder.h) no matter how the process dies. A query
/// records none, so load cannot rotate them out of the ring.
///
/// Concurrency: multi-producer. A writer claims a slot with one
/// fetch_add, fills the fields, and publishes by storing the record's
/// 1-based ticket last (release). Readers (the dump pipeline) accept a
/// slot only when the ticket matches the expected sequence number and the
/// message is NUL-terminated; a slot torn by a racing wrap is skipped,
/// never blocked on. All fields are plain memory — no allocation, no
/// locks — so the ring is safe to *read* from a fatal-signal handler.

/// What happened. Keep in sync with EventTypeName().
enum class EventType : uint8_t {
  /// Generic library diagnostic (the routed ex-stderr messages).
  kMessage = 0,
  kQueryPlanned,
  /// Storage-layer error surfaced by the buffer pool (failed flush,
  /// refused Clear, destructor write-back failure).
  kBufferPoolFault,
  /// Non-OK Status construction (error propagation began somewhere).
  kStatusError,
  /// An invariant auditor reported violations.
  kAuditFinding,
  /// Thread-pool scheduling anomaly (park with work pending, teardown
  /// with tasks outstanding).
  kPoolAnomaly,
  /// SJ_CHECK / SJ_CHECK_OK failure; the process is about to abort.
  kCheckFailure,
  /// Watchdog: an active heartbeat went stale.
  kWatchdogStall,
  /// Watchdog: a query ran past its deadline.
  kDeadlineExceeded,
  /// A flight dump was written (and why).
  kDump,
  /// A completed query entered the service slow-query ring (worst recent
  /// by latency); detail names the session, request id, strategy, outcome
  /// and wall time.
  kSlowQuery,
};

/// Stable lowercase name ("status_error", ...), for dumps and tools.
const char* EventTypeName(EventType type);

enum class EventSeverity : uint8_t {
  kInfo = 0,
  kWarn,
  kError,
  kFatal,
};

const char* EventSeverityName(EventSeverity severity);

/// One ring slot. `ticket` is the record's 1-based global sequence
/// number, stored last with release order: a reader that sees the ticket
/// it expects for a position knows the payload stores happened-before.
struct EventRecord {
  static constexpr size_t kMessageBytes = 104;

  std::atomic<uint64_t> ticket{0};
  std::atomic<int64_t> ts_ns{0};
  std::atomic<int32_t> tid{-1};
  std::atomic<uint8_t> type{0};
  std::atomic<uint8_t> severity{0};
  /// NUL-terminated rendered message (truncated to fit). Relaxed atomic
  /// chars: a reader racing a wrapping writer is then defined behavior
  /// (the ticket check rejects the torn payload), and the copy loop uses
  /// no library calls, so it is also safe in signal context.
  std::atomic<char> message[kMessageBytes];

  /// Copies the message into `out` (capacity >= kMessageBytes), stopping
  /// at the terminator. Returns false when no terminator was found — a
  /// torn slot the caller should skip. Async-signal-safe.
  SJ_SIGNAL_SAFE bool CopyMessageTo(char* out) const {
    for (size_t i = 0; i < kMessageBytes; ++i) {
      const char c = message[i].load(std::memory_order_relaxed);
      out[i] = c;
      if (c == '\0') return true;
    }
    return false;
  }
};

/// A reader-side copy of one record (plain values, safe to keep).
struct EventView {
  uint64_t seq = 0;
  int64_t ts_ns = 0;
  int tid = -1;
  EventType type = EventType::kMessage;
  EventSeverity severity = EventSeverity::kInfo;
  std::string message;
};

class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// The process-wide log every SJ_EVENT feeds. Never destroyed.
  static EventLog& Global();

  explicit EventLog(size_t capacity);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one record; `message` is copied (and truncated) into the
  /// slot. Lock-free, callable from any thread.
  void Record(EventType type, EventSeverity severity, const char* message);

  /// printf-style Record. The rendered message is truncated to
  /// EventRecord::kMessageBytes - 1 characters.
  void Recordf(EventType type, EventSeverity severity, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));

  /// The last min(total, capacity, max_records) records, oldest first.
  /// Torn slots (reader racing a wrapping writer) are skipped.
  std::vector<EventView> Tail(size_t max_records) const;

  /// Total records ever written (monotonic).
  SJ_SIGNAL_SAFE uint64_t total() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Records lost to wraparound.
  SJ_SIGNAL_SAFE uint64_t dropped() const;
  SJ_SIGNAL_SAFE size_t capacity() const { return capacity_; }

  /// Raw slot for absolute record index `i` (async-signal-safe dump path;
  /// the caller applies the ticket-match discipline itself).
  SJ_SIGNAL_SAFE const EventRecord& slot(uint64_t i) const {
    return slots_[static_cast<size_t>(i % capacity_)];
  }

  /// Records at or above this severity are echoed to stderr as they are
  /// recorded, so routing a library's stderr diagnostics through the log
  /// does not hide them from an operator's console. Default: kWarn.
  void SetStderrEchoSeverity(EventSeverity min_severity);

 private:
  const size_t capacity_;
  std::vector<EventRecord> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint8_t> echo_severity_{
      static_cast<uint8_t>(EventSeverity::kWarn)};
};

/// SJ_EVENT(kAuditFinding, kWarn, "%s: %d violations", subject, n):
/// records one structured event on the global log. Always compiled; cost
/// is one clock read, one fetch_add, and one vsnprintf.
#define SJ_EVENT(type, severity, ...)                       \
  ::spatialjoin::EventLog::Global().Recordf(                \
      ::spatialjoin::EventType::type,                       \
      ::spatialjoin::EventSeverity::severity, __VA_ARGS__)

}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_EVENT_LOG_H_
