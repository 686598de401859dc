#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/process_info.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace spatialjoin {

namespace {

// ---------------------------------------------------------------------------
// Recorder configuration (written by Install, read everywhere — including
// the signal handler, so everything is an atomic or written-before-arming).
// ---------------------------------------------------------------------------

constexpr size_t kDumpPathBytes = 512;
// Caps on dump size: newest-first retention per section.
constexpr uint64_t kDumpMaxEvents = 1024;
constexpr uint64_t kDumpMaxSpansPerThread = 2048;

// Written by Install() before the handlers are armed (and at static init
// from SJ_FLIGHT_DUMP); read by open() in the dump path.
char g_dump_path[kDumpPathBytes] = "sj.flightdump.json";

std::atomic<bool> g_installed{false};
std::atomic<bool> g_signals_installed{false};
std::atomic<int64_t> g_stall_budget_ns{int64_t{10} * 1000 * 1000 * 1000};
std::atomic<int64_t> g_watchdog_interval_ms{100};

std::atomic<int64_t> g_dumps_written{0};
// Left set after a fatal dump on purpose: the check-failure path aborts
// right after dumping, and the SIGABRT handler must not dump again.
std::atomic<bool> g_dump_in_progress{false};

// The global event log, cached at static init so the signal handler never
// runs the function-local-static initialization protocol.
std::atomic<EventLog*> g_event_log{nullptr};

// ---------------------------------------------------------------------------
// Pre-serialized buffers (seqlock). The structures behind ProcessInfoJson
// and MetricsRegistry::ToJson allocate and take locks, so the crash path
// cannot touch them. Instead the watchdog (and every non-signal dump)
// re-serializes them into these fixed buffers; the signal handler copies
// a buffer out only when the sequence count is stable-and-even. Bytes are
// relaxed atomics so the racing copy is defined behavior.
// ---------------------------------------------------------------------------

struct PreBuf {
  std::atomic<uint32_t> seq{0};  // odd while a writer is mid-update
  std::atomic<uint32_t> len{0};  // 0 = never written / did not fit
  std::atomic<char>* const data;
  const uint32_t cap;

  PreBuf(std::atomic<char>* d, uint32_t c) : data(d), cap(c) {}
};

constexpr uint32_t kProcessBufBytes = 4 * 1024;
constexpr uint32_t kMetricsBufBytes = 192 * 1024;
constexpr uint32_t kDeltaBufBytes = 16 * 1024;
constexpr int kDeltaSlots = 8;

std::atomic<char> g_process_bytes[kProcessBufBytes];
std::atomic<char> g_metrics_bytes[kMetricsBufBytes];
std::atomic<char> g_delta_bytes[kDeltaSlots][kDeltaBufBytes];

PreBuf g_process_buf(g_process_bytes, kProcessBufBytes);
PreBuf g_metrics_buf(g_metrics_bytes, kMetricsBufBytes);
PreBuf g_delta_bufs[kDeltaSlots] = {
    {g_delta_bytes[0], kDeltaBufBytes}, {g_delta_bytes[1], kDeltaBufBytes},
    {g_delta_bytes[2], kDeltaBufBytes}, {g_delta_bytes[3], kDeltaBufBytes},
    {g_delta_bytes[4], kDeltaBufBytes}, {g_delta_bytes[5], kDeltaBufBytes},
    {g_delta_bytes[6], kDeltaBufBytes}, {g_delta_bytes[7], kDeltaBufBytes},
};
std::atomic<uint64_t> g_delta_head{0};
std::atomic<int64_t> g_metrics_snapshot_ts_ns{0};

// Query-service snapshot (slow-query rings + totals), provided by
// server/telemetry.cc when a service is running in this process. Sized
// for kSlowRing * 2 + recent records with room to spare.
constexpr uint32_t kServiceBufBytes = 64 * 1024;
std::atomic<char> g_service_bytes[kServiceBufBytes];
PreBuf g_service_buf(g_service_bytes, kServiceBufBytes);
std::atomic<std::string (*)()> g_service_provider{nullptr};

// Serializes all pre-serialization writers (watchdog tick, Install,
// explicit dumps); the check-failure path only TryLocks it, so a crash
// while the watchdog is mid-refresh degrades to slightly stale buffers
// instead of deadlocking.
Mutex g_refresh_mu;

void StorePreBuf(PreBuf& buf, const std::string& s) {
  buf.seq.fetch_add(1, std::memory_order_acq_rel);  // now odd
  uint32_t n = 0;
  if (s.size() < buf.cap) {
    n = static_cast<uint32_t>(s.size());
    for (uint32_t i = 0; i < n; ++i) {
      buf.data[i].store(s[i], std::memory_order_relaxed);
    }
  }
  buf.len.store(n, std::memory_order_relaxed);
  buf.seq.fetch_add(1, std::memory_order_release);  // even again
}

// Copies a stable snapshot of `buf` into `out` (capacity `out_cap`).
// Returns the copied length, or 0 when the buffer is absent or a writer
// kept it unstable across the retries (caller emits null). Signal-safe.
SJ_SIGNAL_SAFE uint32_t LoadPreBuf(const PreBuf& buf, char* out,
                                   uint32_t out_cap) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint32_t seq_before = buf.seq.load(std::memory_order_acquire);
    if ((seq_before & 1) != 0) continue;
    const uint32_t n = buf.len.load(std::memory_order_relaxed);
    if (n == 0 || n > out_cap) return 0;
    for (uint32_t i = 0; i < n; ++i) {
      out[i] = buf.data[i].load(std::memory_order_relaxed);
    }
    if (buf.seq.load(std::memory_order_acquire) == seq_before) return n;
  }
  return 0;
}

// Scratch for splicing pre-serialized buffers into a dump. Only touched
// with g_dump_in_progress held, so one static buffer suffices.
char g_dump_scratch[kMetricsBufBytes];

// ---------------------------------------------------------------------------
// Cached span-ring directory. Tracing::Rings() takes the registry mutex
// and thread_name() is a std::string, so the crash path reads this cache
// instead: ring pointers stay valid forever (rings intentionally leak),
// and names are fixed atomic-char arrays refreshed with the seqlock pass.
// ---------------------------------------------------------------------------

constexpr int kMaxCachedRings = 256;
constexpr size_t kRingNameBytes = 48;

std::atomic<SpanRing*> g_rings[kMaxCachedRings];
std::atomic<char> g_ring_names[kMaxCachedRings][kRingNameBytes];
std::atomic<int> g_ring_count{0};

// ---------------------------------------------------------------------------
// Activity table: one slot per live ActivityScope. All atomics; `kind`
// doubles as the occupancy flag and is stored (release) only after every
// other field of a new registration, so any reader that observes a
// non-null kind observes matching fields.
// ---------------------------------------------------------------------------

constexpr int kMaxActivitySlots = 256;
constexpr size_t kDetailBytes = 48;

struct ActivitySlot {
  std::atomic<bool> claimed{false};
  std::atomic<const char*> kind{nullptr};
  std::atomic<const char*> label{nullptr};
  std::atomic<uint64_t> generation{0};
  // Generation already reported by the watchdog, so one incident produces
  // one event + dump instead of one per tick.
  std::atomic<uint64_t> flagged_generation{0};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> last_beat_ns{0};
  std::atomic<int64_t> deadline_ns{0};
  std::atomic<int32_t> tid{-1};
  std::atomic<bool> idle{false};
  std::atomic<char> detail[kDetailBytes];
};

ActivitySlot g_activities[kMaxActivitySlots];

thread_local ActivityScope* tls_scope = nullptr;

// ---------------------------------------------------------------------------
// Async-signal-safe formatting: a buffered fd writer with hand-rolled
// integer and JSON-string rendering. Nothing here allocates, locks, or
// calls stdio.
// ---------------------------------------------------------------------------

SJ_SIGNAL_SAFE size_t SafeStrlen(const char* s) {
  size_t n = 0;
  while (s[n] != '\0') ++n;
  return n;
}

class FdWriter {
 public:
  SJ_SIGNAL_SAFE explicit FdWriter(int fd) : fd_(fd) {}
  SJ_SIGNAL_SAFE ~FdWriter() { Flush(); }

  SJ_SIGNAL_SAFE void Write(const char* s, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (used_ == sizeof(buf_)) Flush();
      buf_[used_++] = s[i];
    }
  }
  SJ_SIGNAL_SAFE void Text(const char* s) { Write(s, SafeStrlen(s)); }

  SJ_SIGNAL_SAFE void Int(int64_t v) {
    char tmp[24];
    Write(tmp, FormatInt(v, tmp));
  }
  SJ_SIGNAL_SAFE void Uint(uint64_t v) {
    char tmp[24];
    Write(tmp, FormatUint(v, tmp));
  }

  /// Writes `s` as a quoted JSON string, reading at most `max_bytes`
  /// characters (stops at NUL). nullptr renders as "".
  SJ_SIGNAL_SAFE void Quoted(const char* s, size_t max_bytes) {
    Put('"');
    if (s != nullptr) {
      for (size_t i = 0; i < max_bytes && s[i] != '\0'; ++i) Escaped(s[i]);
    }
    Put('"');
  }

  /// Quoted(), but over an atomic-char buffer (activity details, cached
  /// ring names).
  SJ_SIGNAL_SAFE void QuotedAtomic(const std::atomic<char>* s,
                                   size_t max_bytes) {
    Put('"');
    for (size_t i = 0; i < max_bytes; ++i) {
      const char c = s[i].load(std::memory_order_relaxed);
      if (c == '\0') break;
      Escaped(c);
    }
    Put('"');
  }

  SJ_SIGNAL_SAFE void Flush() {
    size_t off = 0;
    while (off < used_) {
      const ssize_t n = write(fd_, buf_ + off, used_ - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ok_ = false;
        break;
      }
      off += static_cast<size_t>(n);
    }
    used_ = 0;
  }

  bool ok() const { return ok_; }

  SJ_SIGNAL_SAFE static size_t FormatUint(uint64_t v, char* out) {
    char tmp[24];
    size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    for (size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
    return n;
  }

  SJ_SIGNAL_SAFE static size_t FormatInt(int64_t v, char* out) {
    if (v >= 0) return FormatUint(static_cast<uint64_t>(v), out);
    out[0] = '-';
    // Negating INT64_MIN overflows int64_t; go through uint64_t.
    return 1 + FormatUint(~static_cast<uint64_t>(v) + 1, out + 1);
  }

 private:
  SJ_SIGNAL_SAFE void Put(char c) {
    if (used_ == sizeof(buf_)) Flush();
    buf_[used_++] = c;
  }

  SJ_SIGNAL_SAFE void Escaped(char c) {
    static const char kHex[] = "0123456789abcdef";
    if (c == '"' || c == '\\') {
      Put('\\');
      Put(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      Put('\\');
      Put('u');
      Put('0');
      Put('0');
      Put(kHex[(c >> 4) & 0xF]);
      Put(kHex[c & 0xF]);
    } else {
      Put(c);
    }
  }

  int fd_;
  bool ok_ = true;
  size_t used_ = 0;
  char buf_[4096];
};

// ---------------------------------------------------------------------------
// Pre-serialization (normal context only).
// ---------------------------------------------------------------------------

void RefreshLocked() SJ_REQUIRES(g_refresh_mu) {
  StorePreBuf(g_process_buf, ProcessInfoJson());

  MetricsRegistry& registry = MetricsRegistry::Global();
  StorePreBuf(g_metrics_buf, registry.ToJson());
  const int64_t now = MonotonicNowNs();
  g_metrics_snapshot_ts_ns.store(now, std::memory_order_relaxed);

  // Counter delta since the previous refresh: the dump's "what was the
  // engine doing just before it died" section. Leaked so a watchdog tick
  // racing static destruction stays safe.
  // sj-lint: allow(naked-new)
  static auto* previous = new std::map<std::string, int64_t>();
  std::map<std::string, int64_t> current = registry.CounterSnapshot();
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KV("ts_ns", now);
  w.Key("changed");
  w.BeginObject();
  int changed = 0;
  for (const auto& [name, value] : current) {
    auto it = previous->find(name);
    const int64_t before = it == previous->end() ? 0 : it->second;
    if (value != before) {
      w.KV(name, value - before);
      ++changed;
    }
  }
  w.EndObject();
  w.EndObject();
  *previous = std::move(current);
  if (changed > 0) {
    const uint64_t head = g_delta_head.load(std::memory_order_relaxed);
    StorePreBuf(g_delta_bufs[head % kDeltaSlots], os.str());
    g_delta_head.store(head + 1, std::memory_order_release);
  }

  // Query-service section, when a server registered a provider. Runs in
  // normal context only (the provider allocates and locks); the signal
  // path sees whatever this tick pre-serialized.
  if (auto* provider = g_service_provider.load(std::memory_order_acquire)) {
    StorePreBuf(g_service_buf, provider());
  }

  // Span-ring directory.
  const auto rings = Tracing::RingsWithNames();
  const int n = rings.size() < static_cast<size_t>(kMaxCachedRings)
                    ? static_cast<int>(rings.size())
                    : kMaxCachedRings;
  for (int i = 0; i < n; ++i) {
    g_rings[i].store(rings[i].first, std::memory_order_relaxed);
    const std::string& name = rings[i].second;
    const size_t len =
        name.size() < kRingNameBytes - 1 ? name.size() : kRingNameBytes - 1;
    for (size_t j = 0; j < len; ++j) {
      g_ring_names[i][j].store(name[j], std::memory_order_relaxed);
    }
    g_ring_names[i][len].store('\0', std::memory_order_relaxed);
  }
  g_ring_count.store(n, std::memory_order_release);
}

// Best-effort refresh for the check-failure path: never blocks, so a
// crash while another thread holds the refresh lock (e.g. mid-watchdog
// tick) dumps with the previous tick's buffers instead of hanging the
// abort.
void TryRefresh() {
  if (!g_refresh_mu.TryLock()) return;
  RefreshLocked();
  g_refresh_mu.Unlock();
}

// ---------------------------------------------------------------------------
// The dump serializer. One writer for every trigger, so there is exactly
// one schema (tools/sj_inspect validates it). Everything below is
// async-signal-safe: atomics, the seqlock copies, and FdWriter.
// ---------------------------------------------------------------------------

SJ_SIGNAL_SAFE void WritePreBufOrNull(FdWriter& w, const PreBuf& buf) {
  const uint32_t n = LoadPreBuf(buf, g_dump_scratch, sizeof(g_dump_scratch));
  if (n == 0) {
    w.Text("null");
    return;
  }
  // The buffer holds a complete JSON document (possibly with a trailing
  // newline); splice it verbatim.
  size_t end = n;
  while (end > 0 &&
         (g_dump_scratch[end - 1] == '\n' || g_dump_scratch[end - 1] == ' ')) {
    --end;
  }
  w.Write(g_dump_scratch, end);
}

SJ_SIGNAL_SAFE void WriteEventsSection(FdWriter& w) {
  w.Text("\"events\": {");
  EventLog* log = g_event_log.load(std::memory_order_acquire);
  if (log == nullptr) {
    w.Text("\"capacity\": 0, \"total\": 0, \"dropped\": 0, \"records\": []}");
    return;
  }
  const uint64_t total = log->total();
  uint64_t window = total < log->capacity() ? total : log->capacity();
  if (window > kDumpMaxEvents) window = kDumpMaxEvents;

  w.Text("\"capacity\": ");
  w.Uint(log->capacity());
  w.Text(", \"total\": ");
  w.Uint(total);
  w.Text(", \"dropped\": ");
  w.Uint(log->dropped());
  w.Text(", \"records\": [");
  bool first = true;
  for (uint64_t i = total - window; i < total; ++i) {
    const EventRecord& slot = log->slot(i);
    const uint64_t ticket = slot.ticket.load(std::memory_order_acquire);
    if (ticket != i + 1) continue;  // torn by a racing writer — skip
    char message[EventRecord::kMessageBytes];
    if (!slot.CopyMessageTo(message)) continue;
    if (!first) w.Text(",");
    first = false;
    w.Text("\n  {\"seq\": ");
    w.Uint(ticket);
    w.Text(", \"ts_ns\": ");
    w.Int(slot.ts_ns.load(std::memory_order_relaxed));
    w.Text(", \"tid\": ");
    w.Int(slot.tid.load(std::memory_order_relaxed));
    w.Text(", \"type\": ");
    w.Quoted(EventTypeName(static_cast<EventType>(
                 slot.type.load(std::memory_order_relaxed))),
             32);
    w.Text(", \"severity\": ");
    w.Quoted(EventSeverityName(static_cast<EventSeverity>(
                 slot.severity.load(std::memory_order_relaxed))),
             16);
    w.Text(", \"message\": ");
    w.Quoted(message, sizeof(message));
    w.Text("}");
  }
  w.Text("\n]}");
}

SJ_SIGNAL_SAFE void WriteActivitiesSection(FdWriter& w, int64_t now_ns) {
  w.Text("\"activities\": [");
  bool first = true;
  for (int i = 0; i < kMaxActivitySlots; ++i) {
    const ActivitySlot& slot = g_activities[i];
    const char* kind = slot.kind.load(std::memory_order_acquire);
    if (kind == nullptr) continue;
    const char* label = slot.label.load(std::memory_order_relaxed);
    const int64_t start = slot.start_ns.load(std::memory_order_relaxed);
    if (!first) w.Text(",");
    first = false;
    w.Text("\n  {\"slot\": ");
    w.Int(i);
    w.Text(", \"kind\": ");
    w.Quoted(kind, 64);
    w.Text(", \"label\": ");
    w.Quoted(label, 64);
    w.Text(", \"detail\": ");
    w.QuotedAtomic(slot.detail, kDetailBytes);
    w.Text(", \"tid\": ");
    w.Int(slot.tid.load(std::memory_order_relaxed));
    w.Text(", \"idle\": ");
    w.Text(slot.idle.load(std::memory_order_relaxed) ? "true" : "false");
    w.Text(", \"start_ns\": ");
    w.Int(start);
    w.Text(", \"age_ns\": ");
    w.Int(now_ns - start);
    w.Text(", \"last_beat_ns\": ");
    w.Int(slot.last_beat_ns.load(std::memory_order_relaxed));
    w.Text(", \"deadline_ns\": ");
    w.Int(slot.deadline_ns.load(std::memory_order_relaxed));
    w.Text("}");
  }
  w.Text("\n]");
}

SJ_SIGNAL_SAFE void WriteSpansSection(FdWriter& w) {
  // "repaired" tells sj_inspect these are raw ring contents: Begin/End
  // pairs broken by wraparound are present, unlike trace_export's output.
  w.Text("\"spans\": {\"repaired\": false, \"threads\": [");
  const int ring_count = g_ring_count.load(std::memory_order_acquire);
  bool first_ring = true;
  for (int r = 0; r < ring_count; ++r) {
    const SpanRing* ring = g_rings[r].load(std::memory_order_relaxed);
    if (ring == nullptr) continue;
    if (!first_ring) w.Text(",");
    first_ring = false;
    const uint64_t head = ring->head();
    uint64_t window = head < ring->capacity() ? head : ring->capacity();
    if (window > kDumpMaxSpansPerThread) window = kDumpMaxSpansPerThread;
    w.Text("\n  {\"tid\": ");
    w.Int(ring->tid());
    w.Text(", \"name\": ");
    w.QuotedAtomic(g_ring_names[r], kRingNameBytes);
    w.Text(", \"total\": ");
    w.Uint(head);
    w.Text(", \"dropped\": ");
    w.Uint(ring->dropped());
    w.Text(", \"events\": [");
    bool first_event = true;
    for (uint64_t i = head - window; i < head; ++i) {
      const TraceEvent& e = ring->slot(i);
      const char phase = e.phase.load(std::memory_order_relaxed);
      if (phase != 'B' && phase != 'E' && phase != 'i' && phase != 'C') {
        continue;  // torn or never-written slot
      }
      const char* name = e.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      const char* category = e.category.load(std::memory_order_relaxed);
      if (!first_event) w.Text(",");
      first_event = false;
      const char ph[2] = {phase, '\0'};
      w.Text("\n    {\"ph\": ");
      w.Quoted(ph, 2);
      w.Text(", \"name\": ");
      w.Quoted(name, 128);
      if (category != nullptr) {
        w.Text(", \"cat\": ");
        w.Quoted(category, 64);
      }
      w.Text(", \"ts_ns\": ");
      w.Int(e.ts_ns.load(std::memory_order_relaxed));
      if (phase == 'C') {
        w.Text(", \"value\": ");
        w.Int(e.value.load(std::memory_order_relaxed));
      }
      w.Text("}");
    }
    w.Text("\n  ]}");
  }
  w.Text("\n]}");
}

SJ_SIGNAL_SAFE void WriteMetricsSection(FdWriter& w, int64_t now_ns) {
  w.Text("\"metrics\": {\"snapshot\": ");
  WritePreBufOrNull(w, g_metrics_buf);
  w.Text(",\n\"snapshot_age_ns\": ");
  w.Int(now_ns - g_metrics_snapshot_ts_ns.load(std::memory_order_relaxed));
  w.Text(",\n\"deltas\": [");
  const uint64_t head = g_delta_head.load(std::memory_order_acquire);
  const uint64_t window =
      head < static_cast<uint64_t>(kDeltaSlots) ? head : kDeltaSlots;
  bool first = true;
  for (uint64_t i = head - window; i < head; ++i) {
    const uint32_t n = LoadPreBuf(g_delta_bufs[i % kDeltaSlots],
                                  g_dump_scratch, sizeof(g_dump_scratch));
    if (n == 0) continue;
    if (!first) w.Text(",\n");
    first = false;
    w.Write(g_dump_scratch, n);
  }
  w.Text("]}");
}

std::atomic<bool> g_watchdog_running{false};
std::atomic<int64_t> g_watchdog_ticks{0};
std::atomic<int64_t> g_watchdog_stalls{0};
std::atomic<int64_t> g_watchdog_deadline_hits{0};

SJ_SIGNAL_SAFE void WriteDump(int fd, const char* kind, const char* detail,
                              bool fatal) {
  const int64_t now = MonotonicNowNs();
  FdWriter w(fd);
  w.Text("{\n\"flightdump_version\": 2,\n");
  w.Text("\"pid\": ");
  w.Int(static_cast<int64_t>(getpid()));
  w.Text(",\n\"reason\": {\"kind\": ");
  w.Quoted(kind, 64);
  w.Text(", \"detail\": ");
  w.Quoted(detail, 256);
  w.Text(", \"fatal\": ");
  w.Text(fatal ? "true" : "false");
  w.Text(", \"ts_ns\": ");
  w.Int(now);
  w.Text("},\n\"process\": ");
  WritePreBufOrNull(w, g_process_buf);
  w.Text(",\n");
  WriteEventsSection(w);
  w.Text(",\n");
  WriteActivitiesSection(w, now);
  w.Text(",\n");
  WriteSpansSection(w);
  w.Text(",\n");
  WriteMetricsSection(w, now);
  w.Text(",\n\"service\": ");
  WritePreBufOrNull(w, g_service_buf);
  w.Text(",\n\"watchdog\": {\"running\": ");
  w.Text(g_watchdog_running.load(std::memory_order_relaxed) ? "true"
                                                            : "false");
  w.Text(", \"ticks\": ");
  w.Int(g_watchdog_ticks.load(std::memory_order_relaxed));
  w.Text(", \"stalls\": ");
  w.Int(g_watchdog_stalls.load(std::memory_order_relaxed));
  w.Text(", \"deadline_hits\": ");
  w.Int(g_watchdog_deadline_hits.load(std::memory_order_relaxed));
  w.Text("}\n}\n");
  w.Flush();
}

enum class RefreshMode { kNone, kBlocking, kTry };

// Console breadcrumb from the dump path. Raw write(2): the fatal paths
// cannot use stdio, and one code path keeps the behavior uniform.
SJ_SIGNAL_SAFE void WriteStderr(const char* a, const char* b, const char* c) {
  char line[kDumpPathBytes + 96];
  size_t n = 0;
  for (const char* part : {a, b, c}) {
    for (size_t i = 0; part[i] != '\0' && n < sizeof(line) - 1; ++i) {
      line[n++] = part[i];
    }
  }
  line[n++] = '\n';
  ssize_t ignored = write(STDERR_FILENO, line, n);
  (void)ignored;
}

// Claims the one-dump-at-a-time flag. False means another dump is mid-
// flight (or a fatal dump already happened); the caller must back off.
SJ_SIGNAL_SAFE bool ClaimDumpFlag() {
  return !g_dump_in_progress.exchange(true, std::memory_order_acq_rel);
}

// The async-signal-safe dump core shared by every trigger: open the dump
// path, serialize, close, breadcrumb. No refresh, no event log, no locks
// — sj_analyze's signal-safety checker walks everything reachable from
// here, so normal-context conveniences must stay in DumpInternal below.
// The caller owns g_dump_in_progress (see ClaimDumpFlag).
SJ_SIGNAL_SAFE bool WriteDumpToPath(const char* kind, const char* detail,
                                    bool fatal) {
  int fd;
  do {
    fd = open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  const bool ok = fd >= 0;
  if (ok) {
    WriteDump(fd, kind, detail, fatal);
    close(fd);
    WriteStderr("[sj:flight] dump written: ", g_dump_path, "");
  } else {
    WriteStderr("[sj:flight] dump FAILED (cannot open): ", g_dump_path, "");
  }
  g_dumps_written.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

// Normal-context dump wrapper: refresh policy + dump event + flag
// release. Fatal callers (check failure) leave the flag set on purpose —
// the process is about to abort and the SIGABRT handler must not dump
// again. The signal handler calls WriteDumpToPath directly instead: this
// function's refresh modes and event recording allocate and lock.
bool DumpInternal(const char* kind, const char* detail, bool fatal,
                  RefreshMode refresh) {
  if (!ClaimDumpFlag()) return false;
  switch (refresh) {
    case RefreshMode::kNone:
      break;
    case RefreshMode::kBlocking: {
      MutexLock lock(g_refresh_mu);
      RefreshLocked();
      break;
    }
    case RefreshMode::kTry:
      TryRefresh();
      break;
  }

  const bool ok = WriteDumpToPath(kind, detail, fatal);

  if (!fatal) {
    // Recording the dump itself is normal-context-only (vsnprintf); the
    // fatal paths are about to die anyway and the dump's "reason" section
    // already tells the story.
    EventLog::Global().Recordf(EventType::kDump, EventSeverity::kInfo,
                               "flight dump (%s: %s) -> %s", kind, detail,
                               ok ? g_dump_path : "OPEN FAILED");
    g_dump_in_progress.store(false, std::memory_order_release);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Fatal triggers: signal handler and SJ_CHECK observer.
// ---------------------------------------------------------------------------

SJ_SIGNAL_SAFE const char* SignalName(int signo) {
  switch (signo) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGABRT:
      return "SIGABRT";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
  }
  return "signal";
}

SJ_SIGNAL_SAFE void OnFatalSignal(int signo) {
  // Straight to the signal-safe core: DumpInternal's refresh modes and
  // event recording are normal-context-only. The flag stays claimed —
  // this process is dying with the re-raised signal below.
  if (ClaimDumpFlag()) {
    WriteDumpToPath("signal", SignalName(signo), /*fatal=*/true);
  }
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (wait status, core dumps, and test
  // harness expectations all stay intact).
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SIG_DFL;
  sigemptyset(&sa.sa_mask);
  sigaction(signo, &sa, nullptr);
  raise(signo);
}

// Handler stack: a corrupted or exhausted thread stack (the very failures
// SIGSEGV reports) must not prevent the dump.
char g_signal_stack[64 * 1024];

void InstallSignalHandlers() {
  stack_t ss;
  std::memset(&ss, 0, sizeof(ss));
  ss.ss_sp = g_signal_stack;
  ss.ss_size = sizeof(g_signal_stack);
  sigaltstack(&ss, nullptr);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &OnFatalSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_ONSTACK;
  for (int signo : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    sigaction(signo, &sa, nullptr);
  }
}

void OnCheckFailure(const char* file, int line, const char* expr,
                    const char* message) {
  EventLog::Global().Recordf(
      EventType::kCheckFailure, EventSeverity::kFatal, "%s:%d: %s%s%s", file,
      line, expr, message[0] != '\0' ? " — " : "", message);
  if (!g_installed.load(std::memory_order_acquire)) return;
  char detail[192];
  std::snprintf(detail, sizeof(detail), "%s:%d: %s", file, line, expr);
  DumpInternal("check_failure", detail, /*fatal=*/true, RefreshMode::kTry);
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

struct Watchdog {
  Mutex mu;
  CondVar cv;
  bool stop SJ_GUARDED_BY(mu) = false;
  bool running SJ_GUARDED_BY(mu) = false;
  std::thread thread SJ_GUARDED_BY(mu);
};

Watchdog& GetWatchdog() {
  // Leaked: the thread object must survive a process exit that never
  // called StopWatchdog (benches with --flight-dump).
  // sj-lint: allow(naked-new)
  static Watchdog* watchdog = new Watchdog();
  return *watchdog;
}

void ScanActivities() {
  const int64_t now = MonotonicNowNs();
  const int64_t budget = g_stall_budget_ns.load(std::memory_order_relaxed);
  for (int i = 0; i < kMaxActivitySlots; ++i) {
    ActivitySlot& slot = g_activities[i];
    const char* kind = slot.kind.load(std::memory_order_acquire);
    if (kind == nullptr) continue;
    if (slot.idle.load(std::memory_order_relaxed)) continue;
    const uint64_t generation = slot.generation.load(std::memory_order_relaxed);
    if (slot.flagged_generation.load(std::memory_order_relaxed) ==
        generation) {
      continue;  // this incident was already reported
    }
    const char* label = slot.label.load(std::memory_order_relaxed);
    if (label == nullptr) label = "";
    const int64_t deadline = slot.deadline_ns.load(std::memory_order_relaxed);
    const int64_t last_beat =
        slot.last_beat_ns.load(std::memory_order_relaxed);
    const int tid = slot.tid.load(std::memory_order_relaxed);
    if (deadline > 0 && now > deadline) {
      slot.flagged_generation.store(generation, std::memory_order_relaxed);
      g_watchdog_deadline_hits.fetch_add(1, std::memory_order_relaxed);
      SJ_EVENT(kDeadlineExceeded, kError,
               "%s/%s (tid %d) ran %lld ms past its deadline", kind, label,
               tid, static_cast<long long>((now - deadline) / 1000000));
      DumpInternal("watchdog", "deadline_exceeded", /*fatal=*/false,
                   RefreshMode::kNone);  // buffers refreshed this tick
    } else if (budget > 0 && last_beat > 0 && now - last_beat > budget) {
      slot.flagged_generation.store(generation, std::memory_order_relaxed);
      g_watchdog_stalls.fetch_add(1, std::memory_order_relaxed);
      SJ_EVENT(kWatchdogStall, kError,
               "%s/%s (tid %d) heartbeat stale for %lld ms", kind, label, tid,
               static_cast<long long>((now - last_beat) / 1000000));
      DumpInternal("watchdog", "stalled_heartbeat", /*fatal=*/false,
                   RefreshMode::kNone);
    }
  }
}

void WatchdogMain() {
  Tracing::SetThreadName("flight.watchdog");
  Watchdog& w = GetWatchdog();
  for (;;) {
    const auto interval = std::chrono::milliseconds(
        g_watchdog_interval_ms.load(std::memory_order_relaxed));
    {
      MutexLock lock(w.mu);
      // A timeout is the normal tick; a notify is Stop() — both paths
      // re-test w.stop below.
      if (!w.stop) (void)w.cv.WaitFor(w.mu, interval);
      if (w.stop) break;
    }
    g_watchdog_ticks.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(g_refresh_mu);
      RefreshLocked();
    }
    ScanActivities();
  }
}

// ---------------------------------------------------------------------------
// Static-init arming: the check observer is always installed (structured
// kCheckFailure events cost nothing), and SJ_FLIGHT_DUMP=<path> arms the
// full pipeline without touching the embedding program.
// ---------------------------------------------------------------------------

struct FlightInit {
  FlightInit() {
    g_event_log.store(&EventLog::Global(), std::memory_order_release);
    internal_check::SetCheckFailureObserver(&OnCheckFailure);
    const char* env = std::getenv("SJ_FLIGHT_DUMP");
    if (env != nullptr && env[0] != '\0') {
      FlightRecorderOptions options;
      options.dump_path = env;
      FlightRecorder::Install(options);
    }
  }
};
FlightInit g_flight_init;

}  // namespace

// ---------------------------------------------------------------------------
// FlightRecorder.
// ---------------------------------------------------------------------------

void FlightRecorder::Install(const FlightRecorderOptions& options) {
  g_event_log.store(&EventLog::Global(), std::memory_order_release);
  const size_t n = options.dump_path.size() < kDumpPathBytes - 1
                       ? options.dump_path.size()
                       : kDumpPathBytes - 1;
  std::memcpy(g_dump_path, options.dump_path.data(), n);
  g_dump_path[n] = '\0';
  g_stall_budget_ns.store(options.stall_budget_ns, std::memory_order_relaxed);
  g_watchdog_interval_ms.store(options.watchdog_interval_ms,
                               std::memory_order_relaxed);
  {
    MutexLock lock(g_refresh_mu);
    RefreshLocked();
  }
  if (options.install_signal_handlers &&
      !g_signals_installed.exchange(true, std::memory_order_acq_rel)) {
    InstallSignalHandlers();
  }
  g_installed.store(true, std::memory_order_release);
  SJ_EVENT(kMessage, kInfo, "flight recorder armed: %s", g_dump_path);
  if (options.start_watchdog) StartWatchdog();
}

bool FlightRecorder::installed() {
  return g_installed.load(std::memory_order_acquire);
}

bool FlightRecorder::Dump(const char* kind, const char* detail) {
  return DumpInternal(kind == nullptr ? "explicit" : kind,
                      detail == nullptr ? "" : detail, /*fatal=*/false,
                      RefreshMode::kBlocking);
}

void FlightRecorder::RefreshPreSerialized() {
  MutexLock lock(g_refresh_mu);
  RefreshLocked();
}

void FlightRecorder::SetServiceSnapshotProvider(std::string (*provider)()) {
  g_service_provider.store(provider, std::memory_order_release);
}

void FlightRecorder::StartWatchdog() {
  Watchdog& w = GetWatchdog();
  MutexLock lock(w.mu);
  if (w.running) return;
  w.stop = false;
  w.running = true;
  g_watchdog_running.store(true, std::memory_order_release);
  w.thread = std::thread(&WatchdogMain);
}

void FlightRecorder::StopWatchdog() {
  Watchdog& w = GetWatchdog();
  std::thread joinable;
  {
    MutexLock lock(w.mu);
    if (!w.running) return;
    w.stop = true;
    w.running = false;
    joinable = std::move(w.thread);
    w.cv.NotifyAll();
  }
  g_watchdog_running.store(false, std::memory_order_release);
  if (joinable.joinable()) joinable.join();
}

bool FlightRecorder::watchdog_running() {
  return g_watchdog_running.load(std::memory_order_acquire);
}

int64_t FlightRecorder::watchdog_ticks() {
  return g_watchdog_ticks.load(std::memory_order_relaxed);
}

int64_t FlightRecorder::watchdog_stalls() {
  return g_watchdog_stalls.load(std::memory_order_relaxed);
}

int64_t FlightRecorder::watchdog_deadline_hits() {
  return g_watchdog_deadline_hits.load(std::memory_order_relaxed);
}

int64_t FlightRecorder::dumps_written() {
  return g_dumps_written.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ActivityScope.
// ---------------------------------------------------------------------------

ActivityScope::ActivityScope(const char* kind, const char* label,
                             int64_t deadline_budget_ns) {
  for (int i = 0; i < kMaxActivitySlots; ++i) {
    bool expected = false;
    if (g_activities[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slot_ = i;
      break;
    }
  }
  // Registered on the TLS stack even when the table is full, so nesting
  // stays balanced; a slotless scope just makes Beat() a no-op.
  prev_ = tls_scope;
  tls_scope = this;
  if (slot_ < 0) return;
  ActivitySlot& slot = g_activities[slot_];
  const int64_t now = MonotonicNowNs();
  slot.generation.fetch_add(1, std::memory_order_relaxed);
  slot.label.store(label, std::memory_order_relaxed);
  slot.start_ns.store(now, std::memory_order_relaxed);
  slot.last_beat_ns.store(now, std::memory_order_relaxed);
  slot.deadline_ns.store(
      deadline_budget_ns > 0 ? now + deadline_budget_ns : 0,
      std::memory_order_relaxed);
  slot.tid.store(Tracing::CurrentThreadTidOrNegative(),
                 std::memory_order_relaxed);
  slot.idle.store(false, std::memory_order_relaxed);
  slot.detail[0].store('\0', std::memory_order_relaxed);
  // Publish last: a reader that sees a non-null kind sees the fields of
  // *this* registration, not the previous occupant's.
  slot.kind.store(kind, std::memory_order_release);
}

ActivityScope::~ActivityScope() {
  if (slot_ >= 0) {
    ActivitySlot& slot = g_activities[slot_];
    slot.kind.store(nullptr, std::memory_order_release);
    // Invalidate any flagged_generation match from this occupancy.
    slot.generation.fetch_add(1, std::memory_order_relaxed);
    slot.claimed.store(false, std::memory_order_release);
  }
  tls_scope = prev_;
}

void ActivityScope::Beat() {
  if (slot_ < 0) return;
  g_activities[slot_].last_beat_ns.store(MonotonicNowNs(),
                                         std::memory_order_relaxed);
}

void ActivityScope::SetIdle(bool idle) {
  if (slot_ < 0) return;
  ActivitySlot& slot = g_activities[slot_];
  if (!idle) {
    slot.last_beat_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
  }
  slot.idle.store(idle, std::memory_order_relaxed);
}

void ActivityScope::SetDetail(const char* detail) {
  if (slot_ < 0 || detail == nullptr) return;
  ActivitySlot& slot = g_activities[slot_];
  size_t i = 0;
  for (; i < kDetailBytes - 1 && detail[i] != '\0'; ++i) {
    SJ_BOUNDED_WORK;  // copy capped at kDetailBytes
    slot.detail[i].store(detail[i], std::memory_order_relaxed);
  }
  slot.detail[i].store('\0', std::memory_order_relaxed);
}

void ActivityScope::BeatThisThread() {
  if (tls_scope != nullptr) tls_scope->Beat();
}

}  // namespace spatialjoin
