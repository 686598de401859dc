#include "obs/event_log.h"

#include <cstdarg>
#include <cstdio>

#include "common/analysis_annotations.h"
#include "common/status.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace spatialjoin {

SJ_SIGNAL_SAFE const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kMessage:
      return "message";
    case EventType::kQueryPlanned:
      return "query_planned";
    case EventType::kBufferPoolFault:
      return "buffer_pool_fault";
    case EventType::kStatusError:
      return "status_error";
    case EventType::kAuditFinding:
      return "audit_finding";
    case EventType::kPoolAnomaly:
      return "pool_anomaly";
    case EventType::kCheckFailure:
      return "check_failure";
    case EventType::kWatchdogStall:
      return "watchdog_stall";
    case EventType::kDeadlineExceeded:
      return "deadline_exceeded";
    case EventType::kDump:
      return "dump";
    case EventType::kSlowQuery:
      return "slow_query";
  }
  return "unknown";
}

SJ_SIGNAL_SAFE const char* EventSeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
    case EventSeverity::kFatal:
      return "fatal";
  }
  return "unknown";
}

EventLog& EventLog::Global() {
  // Leaked on purpose (like the span-ring registry): events may be
  // recorded during static destruction, and the flight recorder's signal
  // handler reads the ring at arbitrary times.
  // sj-lint: allow(naked-new)
  static EventLog* log = new EventLog(kDefaultCapacity);
  return *log;
}

EventLog::EventLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {}

void EventLog::Record(EventType type, EventSeverity severity,
                      const char* message) {
  // Render (truncate) once into a local buffer; it feeds both the slot
  // stores and the stderr echo.
  char rendered[EventRecord::kMessageBytes];
  size_t length = 0;
  if (message != nullptr) {
    while (length < EventRecord::kMessageBytes - 1 &&
           message[length] != '\0') {
      SJ_BOUNDED_WORK;  // copy capped at kMessageBytes
      rendered[length] = message[length];
      ++length;
    }
  }
  rendered[length] = '\0';

  const int64_t now_ns = MonotonicNowNs();
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed) + 1;
  EventRecord& slot = slots_[static_cast<size_t>((ticket - 1) % capacity_)];

  // Invalidate first so a reader racing this overwrite rejects the slot
  // instead of pairing the old ticket with the new payload.
  slot.ticket.store(0, std::memory_order_relaxed);
  slot.ts_ns.store(now_ns, std::memory_order_relaxed);
  slot.tid.store(Tracing::CurrentThreadTidOrNegative(),
                 std::memory_order_relaxed);
  slot.type.store(static_cast<uint8_t>(type), std::memory_order_relaxed);
  slot.severity.store(static_cast<uint8_t>(severity),
                      std::memory_order_relaxed);
  for (size_t i = 0; i <= length; ++i) {
    SJ_BOUNDED_WORK;  // store capped at kMessageBytes
    slot.message[i].store(rendered[i], std::memory_order_relaxed);
  }
  slot.ticket.store(ticket, std::memory_order_release);

  if (static_cast<uint8_t>(severity) >=
      echo_severity_.load(std::memory_order_relaxed)) {
    // The one sanctioned console write: the log mirrors warn+ events so
    // routed diagnostics stay visible to an operator without a dump.
    // sj-lint: allow(stderr-in-lib)
    std::fprintf(stderr, "[sj:%s:%s] %s\n", EventSeverityName(severity),
                 EventTypeName(type), rendered);
  }
}

void EventLog::Recordf(EventType type, EventSeverity severity,
                       const char* fmt, ...) {
  char buffer[EventRecord::kMessageBytes];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  Record(type, severity, buffer);
}

std::vector<EventView> EventLog::Tail(size_t max_records) const {
  const uint64_t head = total();
  uint64_t window = head < capacity_ ? head : capacity_;
  if (window > max_records) window = max_records;

  std::vector<EventView> out;
  out.reserve(static_cast<size_t>(window));
  for (uint64_t i = head - window; i < head; ++i) {
    const EventRecord& slot = this->slot(i);
    const uint64_t ticket = slot.ticket.load(std::memory_order_acquire);
    if (ticket != i + 1) continue;  // torn or already overwritten
    char message[EventRecord::kMessageBytes];
    if (!slot.CopyMessageTo(message)) continue;
    EventView view;
    view.seq = ticket;
    view.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    view.tid = slot.tid.load(std::memory_order_relaxed);
    view.type =
        static_cast<EventType>(slot.type.load(std::memory_order_relaxed));
    view.severity = static_cast<EventSeverity>(
        slot.severity.load(std::memory_order_relaxed));
    view.message.assign(message);
    out.push_back(std::move(view));
  }
  return out;
}

SJ_SIGNAL_SAFE uint64_t EventLog::dropped() const {
  const uint64_t head = total();
  return head > capacity_ ? head - capacity_ : 0;
}

void EventLog::SetStderrEchoSeverity(EventSeverity min_severity) {
  echo_severity_.store(static_cast<uint8_t>(min_severity),
                       std::memory_order_relaxed);
}

namespace {

// Routes non-OK Status constructions into the event log. kNotFound and
// kAlreadyExists are expected control-flow answers (index probes, upsert
// paths), and kCancelled, kDeadlineExceeded and kResourceExhausted a
// query's own outcome (counted in its QueryRecord), not failures —
// recording them would rotate real errors out of the ring.
void StatusErrorObserver(StatusCode code, const char* message) {
  if (code == StatusCode::kNotFound || code == StatusCode::kAlreadyExists ||
      code == StatusCode::kCancelled || code == StatusCode::kDeadlineExceeded ||
      code == StatusCode::kResourceExhausted) {
    return;
  }
  EventLog::Global().Recordf(EventType::kStatusError, EventSeverity::kInfo,
                             "%s: %s", StatusCodeName(code), message);
}

// Installed at static-init time so error propagation is captured from the
// first query on, with no explicit setup. A Status constructed before
// this translation unit initializes simply goes unrecorded.
struct ObserverInstaller {
  ObserverInstaller() {
    internal_status::SetStatusErrorObserver(&StatusErrorObserver);
  }
};
ObserverInstaller installer;

}  // namespace

}  // namespace spatialjoin
