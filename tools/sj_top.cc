// sj_top — live telemetry viewer for a running sj_server.
//
// Connects to the service socket, polls the STATS message, and renders a
// one-screen summary: throughput (completed-query deltas between polls),
// windowed p50/p99 latency, in-flight/admission counters, and the
// slow-query ring retained by ServiceTelemetry. STATS is answered
// inline by the server's I/O loop, bypassing admission, so this works
// exactly when the server is saturated and sj_top matters most.
//
//   sj_top [--socket=PATH] [--interval-ms=N] [--once] [--snapshot=FILE]
//
//   --once           print a single frame and exit (CI smoke mode)
//   --snapshot=FILE  also write the raw STATS JSON of the last poll
//
// The reply schema is produced by ServiceTelemetry::WriteStatsJson. The
// reply must be well-formed JSON (it is parsed with the reader in
// obs/json.h), but its fields are read tolerantly — unknown keys are
// ignored, absent numbers render as zero and absent strings as '?' — so
// sj_top from one build can usually read a slightly newer server.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/timer.h"
#include "server/client.h"

using namespace spatialjoin;

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

const char* StringFlag(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

int64_t IntFlag(int argc, char** argv, const char* name, int64_t fallback) {
  const char* value = StringFlag(argc, argv, name);
  return value ? std::atoll(value) : fallback;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string FmtDuration(int64_t ns) {
  char buf[32];
  if (ns < 0) ns = 0;
  if (ns < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

void RenderSlowRing(const JsonValue& stats) {
  const JsonValue* ring = stats.Member("slow_by_latency");
  if (ring == nullptr || !ring->is_array() || ring->items().empty()) return;
  std::printf("\nslowest queries (last 60s)\n");
  std::printf("  %4s %6s %-6s %-22s %-9s %9s %8s %10s\n", "sess", "req",
              "kind", "strategy", "outcome", "wall", "reads", "pairs");
  for (const JsonValue& rec : ring->items()) {
    std::printf("  %4lld %6llu %-6s %-22s %-9s %9s %8lld %10lld\n",
                static_cast<long long>(rec.IntAt("session")),
                static_cast<unsigned long long>(rec.IntAt("request_id")),
                rec.StringAt("kind", "?").c_str(),
                rec.StringAt("strategy", "?").c_str(),
                rec.StringAt("outcome", "?").c_str(),
                FmtDuration(rec.IntAt("wall_ns")).c_str(),
                static_cast<long long>(rec.IntAt("pages_read")),
                static_cast<long long>(rec.IntAt("pairs_examined")));
  }
}

struct PollDelta {
  bool have_prev = false;
  int64_t prev_completed = 0;
  int64_t prev_ns = 0;
};

void RenderFrame(const JsonValue& stats, const std::string& socket_path,
                 int64_t now_ns, PollDelta* delta, bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);

  const int64_t completed = stats.IntAt("scheduler.completed");
  double qps = -1.0;
  if (delta->have_prev && now_ns > delta->prev_ns) {
    qps = static_cast<double>(completed - delta->prev_completed) * 1e9 /
          static_cast<double>(now_ns - delta->prev_ns);
  }
  delta->have_prev = true;
  delta->prev_completed = completed;
  delta->prev_ns = now_ns;

  std::printf("sj_top — %s\n", socket_path.c_str());
  std::printf(
      "scheduler   inflight %lld/%lld (peak %lld)   admitted %lld   "
      "rejected %lld   completed %lld\n",
      static_cast<long long>(stats.IntAt("scheduler.inflight")),
      static_cast<long long>(stats.IntAt("scheduler.max_inflight")),
      static_cast<long long>(stats.IntAt("scheduler.peak_inflight")),
      static_cast<long long>(stats.IntAt("scheduler.admitted")),
      static_cast<long long>(stats.IntAt("scheduler.rejected")),
      static_cast<long long>(completed));

  if (qps >= 0.0) {
    std::printf("throughput  %.1f q/s\n", qps);
  } else {
    std::printf("throughput  (first poll)\n");
  }

  std::printf(
      "latency     last %s: %lld queries   p50 %s   p90 %s   p99 %s   "
      "mean %s\n",
      FmtDuration(stats.IntAt("latency.window_ns")).c_str(),
      static_cast<long long>(stats.IntAt("latency.count")),
      FmtDuration(stats.IntAt("latency.p50_ns")).c_str(),
      FmtDuration(stats.IntAt("latency.p90_ns")).c_str(),
      FmtDuration(stats.IntAt("latency.p99_ns")).c_str(),
      FmtDuration(stats.IntAt("latency.mean_ns")).c_str());
  std::printf("queue wait  p50 %s   p99 %s\n",
              FmtDuration(stats.IntAt("queue_wait.p50_ns")).c_str(),
              FmtDuration(stats.IntAt("queue_wait.p99_ns")).c_str());
  std::printf(
      "queries     ok %lld   stopped %lld   oversized %lld   "
      "cancel-requested %lld\n",
      static_cast<long long>(stats.IntAt("queries.ok")),
      static_cast<long long>(stats.IntAt("queries.stopped")),
      static_cast<long long>(stats.IntAt("queries.oversized")),
      static_cast<long long>(stats.IntAt("queries.cancel_requested")));
  std::printf(
      "sessions    open %lld (opened %lld)   protocol errors %lld   "
      "write failures %lld\n",
      static_cast<long long>(stats.IntAt("sessions.open")),
      static_cast<long long>(stats.IntAt("sessions.opened")),
      static_cast<long long>(stats.IntAt("sessions.protocol_errors")),
      static_cast<long long>(stats.IntAt("sessions.write_failures")));
  std::printf("pool        workers %lld   submitted %lld   helped %lld   "
              "queued %lld\n",
              static_cast<long long>(stats.IntAt("pool.workers")),
              static_cast<long long>(stats.IntAt("pool.tasks_submitted")),
              static_cast<long long>(stats.IntAt("pool.tasks_stolen")),
              static_cast<long long>(stats.IntAt("pool.tasks_queued")));

  RenderSlowRing(stats);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const char* socket_flag = StringFlag(argc, argv, "--socket");
  if (socket_flag == nullptr) {
    // The server's default socket path embeds its pid, so there is no
    // sensible default here — the flag is mandatory.
    std::fprintf(stderr,
                 "usage: sj_top --socket=PATH [--interval-ms=N] [--once] "
                 "[--snapshot=FILE]\n");
    return 2;
  }
  const std::string socket_path = socket_flag;
  const int64_t interval_ms = IntFlag(argc, argv, "--interval-ms", 1000);
  const bool once = BoolFlag(argc, argv, "--once");
  const char* snapshot_path = StringFlag(argc, argv, "--snapshot");

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  auto client = server::ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "sj_top: %s\n", client.status().message().c_str());
    return 1;
  }

  // Only repaint in place when driving a live terminal; piped output
  // (CI logs) gets plain appended frames.
  const bool clear_screen = !once && ::isatty(STDOUT_FILENO) != 0;

  PollDelta delta;
  while (!g_stop.load(std::memory_order_relaxed)) {
    Result<std::string> reply = client.value()->Stats();
    if (!reply.ok()) {
      std::fprintf(stderr, "sj_top: STATS failed: %s\n",
                   reply.status().message().c_str());
      return 1;
    }
    const JsonDocument stats = ParseJson(reply.value());
    if (!stats.ok() || !stats.root.is_object()) {
      std::fprintf(stderr, "sj_top: malformed STATS reply (%zu bytes) %s\n",
                   reply.value().size(), stats.error.c_str());
      return 1;
    }
    RenderFrame(stats.root, socket_path, MonotonicNowNs(), &delta,
                clear_screen);
    if (snapshot_path != nullptr) {
      std::ofstream out(snapshot_path, std::ios::trunc);
      out << reply.value() << "\n";
      if (!out) {
        std::fprintf(stderr, "sj_top: cannot write snapshot %s\n",
                     snapshot_path);
        return 1;
      }
    }
    if (once) break;
    // Sleep in small slices so SIGINT exits promptly.
    int64_t remaining_ms = interval_ms > 0 ? interval_ms : 1;
    while (remaining_ms > 0 && !g_stop.load(std::memory_order_relaxed)) {
      const int64_t slice = remaining_ms < 50 ? remaining_ms : 50;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining_ms -= slice;
    }
  }
  return 0;
}
