// E-SVC — closed-loop load on the query service front-end (DESIGN.md
// §12): a server over the thread pool, 16 pipelined client
// connections each keeping a 64-request window in flight (1024 offered
// concurrent requests — past the 256-slot admission bound, so the bench
// exercises backpressure by construction), mixed SELECT and JOIN
// requests, then one past-deadline probe and one cancel-mid-flight
// probe against a heavyweight dataset.
//
// The load then runs four measured times, interleaved (DESIGN.md §13):
// two *quiet* phases — telemetry compiled in and attributing every
// query, but with no readers — and two *polled* phases with a
// concurrent STATS client hammering the server throughout, after a
// short warmup phase that absorbs cold caches. Best-of-two polled is
// compared against best-of-two quiet (`telemetry_overhead_within_bound`:
// p99 and throughput within 5%, plus a noise floor self-calibrated from
// the quiet-vs-quiet spread — closed-loop saturated tails vary far more
// run-to-run than any telemetry cost, so a single-phase comparison
// would gate on scheduler luck, not on introspection overhead). The
// final STATS snapshot must account for exactly the queries the clients
// saw succeed across all five phases (`stats_attribution_exact`).
//
// Emits bench_service_load.metrics.json with the run configuration, the
// protocol-level invariants (every reply accounted, the admission bound
// respected, rejections observed, deadline/cancel probes returning
// DEADLINE_EXCEEDED / CANCELLED, the telemetry invariants above), the
// timing-dependent admitted/rejected splits under "load"/"polled", and
// client-side p50/p90/p99 reply latency plus throughput per phase under
// the latency keys scripts/compare_bench.py gates with
// --latency-rel-tol (ignored by default — absolute latency is
// machine-dependent; the overhead *ratios* are named to match the same
// ignore patterns, so they ride in the artifact without gating noise).
//
// Usage: bench_service_load [--threads=N] [--clients=N] [--window=N]
//                           [--requests=N] [--trace=out.trace.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/exec_audit.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/telemetry.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/rect_generator.h"

#include "figure_common.h"

using namespace spatialjoin;
using namespace spatialjoin::server;

namespace {

struct FrozenPair {
  exec::FrozenTree r;
  exec::FrozenTree s;
};

FrozenPair MakeFrozenPair(uint64_t seed_r, uint64_t seed_s, int64_t tuples) {
  DiskManager disk(4000);
  BufferPool pool(&disk, 2048);
  Rectangle world(0, 0, 600, 600);
  Schema schema({{"id", ValueType::kInt64}, {"box", ValueType::kRectangle}});
  Relation r("r", schema, &pool);
  Relation s("s", schema, &pool);
  RTree r_rtree(&pool, RTreeSplit::kQuadratic, 8);
  RTree s_rtree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen_r(world, seed_r);
  RectGenerator gen_s(world, seed_s);
  for (int64_t i = 0; i < tuples; ++i) {
    Rectangle box_r = gen_r.NextRect(2, 30);
    Rectangle box_s = gen_s.NextRect(2, 30);
    r_rtree.Insert(box_r, r.Insert(Tuple({Value(i), Value(box_r)})));
    s_rtree.Insert(box_s, s.Insert(Tuple({Value(i), Value(box_s)})));
  }
  RTreeGenTree r_adapter(&r_rtree, &r, 1);
  RTreeGenTree s_adapter(&s_rtree, &s, 1);
  return {exec::FrozenTree::Materialize(r_adapter),
          exec::FrozenTree::Materialize(s_adapter)};
}

// One client's closed loop: prime `window` pipelined requests, then for
// every reply retire-and-replace until `quota` requests have been sent,
// and drain. The window — not a rate — fixes this connection's offered
// concurrency.
struct ClientOutcome {
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t other = 0;           // anything but RESULT / RESOURCE_EXHAUSTED
  std::vector<int64_t> ok_latency_ns;
  bool transport_ok = true;
};

struct Outstanding {
  uint64_t id;
  int64_t send_ns;
};

void RunClient(const std::string& socket_path, int window, int quota,
               int client_index, ClientOutcome* out) {
  Result<std::unique_ptr<ServiceClient>> client =
      ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    out->transport_ok = false;
    return;
  }
  out->ok_latency_ns.reserve(static_cast<size_t>(quota));

  SelectRequest select_request;
  select_request.dataset_id = 0;
  select_request.strategy = SelectStrategy::kTree;
  select_request.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
  select_request.selector = Rectangle(100, 100, 400, 400);
  JoinRequest join_request;
  join_request.dataset_id = 0;
  join_request.strategy = JoinStrategy::kTreeJoin;
  join_request.op_code = static_cast<uint8_t>(WireOp::kOverlaps);

  std::deque<Outstanding> pending;
  int sent = 0;
  auto send_one = [&]() -> bool {
    const bool join = (sent + client_index) % 2 == 0;
    const int64_t now = MonotonicNowNs();
    Result<uint64_t> id = join ? client.value()->SendJoin(join_request)
                               : client.value()->SendSelect(select_request);
    if (!id.ok()) {
      out->transport_ok = false;
      return false;
    }
    pending.push_back({id.value(), now});
    ++sent;
    return true;
  };

  for (int i = 0; i < window && sent < quota; ++i) {
    if (!send_one()) return;
  }
  while (!pending.empty()) {
    Outstanding front = pending.front();
    pending.pop_front();
    Result<Reply> reply = client.value()->WaitReply(front.id);
    if (!reply.ok()) {
      out->transport_ok = false;
      return;
    }
    if (reply.value().type == MessageType::kResult) {
      ++out->ok;
      out->ok_latency_ns.push_back(MonotonicNowNs() - front.send_ns);
    } else if (reply.value().error_code == StatusCode::kResourceExhausted) {
      ++out->rejected;
    } else {
      ++out->other;
    }
    if (sent < quota && !send_one()) return;
  }
}

int64_t Percentile(std::vector<int64_t>* sorted_in_place, double q) {
  if (sorted_in_place->empty()) return 0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

// Aggregated outcome of one closed-loop phase across all clients.
struct PhaseResult {
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t other = 0;
  bool transport_ok = true;
  double wall_ns = 0;
  int64_t p50 = 0, p90 = 0, p99 = 0, worst = 0;
  double throughput_qps = 0;
};

PhaseResult RunLoadPhase(const std::string& socket_path, int clients,
                         int window, int quota) {
  std::vector<ClientOutcome> outcomes(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const int64_t start_ns = MonotonicNowNs();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, socket_path, window, quota, c,
                         &outcomes[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.wall_ns = static_cast<double>(MonotonicNowNs() - start_ns);
  std::vector<int64_t> latencies;
  for (ClientOutcome& outcome : outcomes) {
    result.ok += outcome.ok;
    result.rejected += outcome.rejected;
    result.other += outcome.other;
    result.transport_ok = result.transport_ok && outcome.transport_ok;
    latencies.insert(latencies.end(), outcome.ok_latency_ns.begin(),
                     outcome.ok_latency_ns.end());
  }
  result.p50 = Percentile(&latencies, 0.50);
  result.p90 = Percentile(&latencies, 0.90);
  result.p99 = Percentile(&latencies, 0.99);
  result.worst = latencies.empty() ? 0 : latencies.back();
  result.throughput_qps =
      result.wall_ns > 0
          ? static_cast<double>(result.ok) * 1e9 / result.wall_ns
          : 0.0;
  return result;
}

void WritePhaseLatency(JsonWriter* w, const PhaseResult& phase) {
  w->BeginObject();
  w->KV("p50", phase.p50);
  w->KV("p90", phase.p90);
  w->KV("p99", phase.p99);
  w->KV("max", phase.worst);
  w->EndObject();
}

int IntFlag(int argc, char** argv, const char* name, int fallback) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::atoi(argv[i] + len + 1);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = args.threads > 0 ? args.threads : std::min(8, std::max(2, hw));
  const int clients = IntFlag(argc, argv, "--clients", 16);
  const int window = IntFlag(argc, argv, "--window", 64);
  const int quota = IntFlag(argc, argv, "--requests", 768);  // per client
  const int offered_inflight = clients * window;
  constexpr int kMaxInflight = 256;

  std::cout << "E-SVC — query service closed-loop load (workers=" << workers
            << " clients=" << clients << " window=" << window
            << " offered inflight=" << offered_inflight
            << " admission bound=" << kMaxInflight << ")\n";

  MetricsRegistry::Global().ResetAll();
  ServiceTelemetry::Global().Reset();
  // Under closed-loop saturation every query queues behind the admission
  // bound, so the default 10ms slow-query event threshold would flood
  // the event log (and stderr) with the steady state. The slow rings
  // still populate; only the event emission is effectively disabled.
  ServiceTelemetry::Global().SetSlowEventThresholdNs(
      int64_t{60} * 1'000'000'000);

  exec::ThreadPool pool(workers);
  Server::Options options;
  options.max_inflight = kMaxInflight;
  Server service(&pool, options);
  {
    FrozenPair small = MakeFrozenPair(41, 42, 400);
    FrozenPair heavy = MakeFrozenPair(51, 52, 1200);
    service.RegisterDataset(std::move(small.r), std::move(small.s));
    service.RegisterDataset(std::move(heavy.r), std::move(heavy.s));
  }
  SJ_CHECK_OK(service.Start());

  std::atomic<int64_t> stats_polls{0};
  std::atomic<bool> stats_poll_ok{true};
  // Runs one measured load phase with a concurrent STATS client polling
  // every 5ms for its whole duration; poll successes/failures accumulate
  // across phases.
  auto run_polled_phase = [&]() -> PhaseResult {
    std::atomic<bool> stop_poller{false};
    std::thread poller([&service, &stop_poller, &stats_polls,
                        &stats_poll_ok] {
      Result<std::unique_ptr<ServiceClient>> poll_client =
          ServiceClient::Connect(service.socket_path());
      if (!poll_client.ok()) {
        stats_poll_ok.store(false);
        return;
      }
      while (!stop_poller.load(std::memory_order_relaxed)) {
        Result<std::string> stats = poll_client.value()->Stats();
        if (!stats.ok() ||
            stats.value().find("\"stats_version\": 3") == std::string::npos) {
          stats_poll_ok.store(false);
          return;
        }
        stats_polls.fetch_add(1, std::memory_order_relaxed);
        // 40 Hz: 40x sj_top's default cadence — aggressive enough to keep
        // STATS snapshots overlapping the load continuously, without the
        // poll client itself displacing query work on a small machine.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
    PhaseResult phase = RunLoadPhase(service.socket_path(), clients, window,
                                     quota);
    stop_poller.store(true);
    poller.join();
    return phase;
  };
  auto print_phase = [](const char* label, const PhaseResult& phase) {
    std::printf("%s: %lld ok, %lld rejected, %lld other "
                "(%.0f qps; p50=%lld p99=%lld ns)\n",
                label, static_cast<long long>(phase.ok),
                static_cast<long long>(phase.rejected),
                static_cast<long long>(phase.other), phase.throughput_qps,
                static_cast<long long>(phase.p50),
                static_cast<long long>(phase.p99));
  };

  // Warmup (unmeasured, still attributed): caches, allocator, scheduler.
  const int warmup_quota = std::max(window, quota / 4);
  PhaseResult warmup = RunLoadPhase(service.socket_path(), clients, window,
                                    warmup_quota);
  // Interleaved A/B/A/B so machine-state drift hits both sides equally.
  PhaseResult quiet1 = RunLoadPhase(service.socket_path(), clients, window,
                                    quota);
  print_phase("quiet1", quiet1);
  PhaseResult polled1 = run_polled_phase();
  print_phase("polled1", polled1);
  PhaseResult quiet2 = RunLoadPhase(service.socket_path(), clients, window,
                                    quota);
  print_phase("quiet2", quiet2);
  PhaseResult polled2 = run_polled_phase();
  print_phase("polled2", polled2);
  std::printf("STATS polls across polled phases: %lld\n",
              static_cast<long long>(stats_polls.load()));

  const int64_t ok =
      warmup.ok + quiet1.ok + quiet2.ok + polled1.ok + polled2.ok;
  const int64_t rejected = warmup.rejected + quiet1.rejected +
                           quiet2.rejected + polled1.rejected +
                           polled2.rejected;
  const int64_t other = warmup.other + quiet1.other + quiet2.other +
                        polled1.other + polled2.other;
  const bool transport_ok = warmup.transport_ok && quiet1.transport_ok &&
                            quiet2.transport_ok && polled1.transport_ok &&
                            polled2.transport_ok;
  const int64_t total =
      int64_t{clients} * (int64_t{quota} * 4 + warmup_quota);
  const bool all_accounted = transport_ok && (ok + rejected + other == total);

  // Telemetry overhead bound, best-of-two vs best-of-two. The slack has
  // three parts: 5% relative (the budget under test), twice the larger
  // same-side phase-to-phase spread (the machine's own noise — under
  // closed-loop saturation the p99 tail routinely swings tens of percent
  // between *identical* phases, so the run calibrates its own noise
  // floor; doubling covers a two-sample spread underestimating the true
  // variance, while a real, consistent regression elevates both polled
  // samples without widening either spread and is still caught), and a
  // small absolute floor (2ms / 50 qps) so tiny scaled runs cannot flip
  // the boolean on one scheduling quantum.
  const PhaseResult& quiet =
      quiet1.p99 <= quiet2.p99 ? quiet1 : quiet2;  // best (lowest) p99
  const PhaseResult& polled = polled1.p99 <= polled2.p99 ? polled1 : polled2;
  const int64_t p99_noise = std::max(std::abs(quiet1.p99 - quiet2.p99),
                                     std::abs(polled1.p99 - polled2.p99));
  const double qps_noise =
      std::max(std::abs(quiet1.throughput_qps - quiet2.throughput_qps),
               std::abs(polled1.throughput_qps - polled2.throughput_qps));
  const double best_quiet_qps =
      std::max(quiet1.throughput_qps, quiet2.throughput_qps);
  const double best_polled_qps =
      std::max(polled1.throughput_qps, polled2.throughput_qps);
  const bool overhead_within_bound =
      polled.p99 <=
          quiet.p99 + quiet.p99 / 20 + 2 * p99_noise + 2'000'000 &&
      best_polled_qps >= 0.95 * best_quiet_qps - 2 * qps_noise - 50.0;
  const double p99_ratio =
      quiet.p99 > 0 ? static_cast<double>(polled.p99) /
                          static_cast<double>(quiet.p99)
                    : 0.0;
  const double throughput_ratio =
      best_quiet_qps > 0 ? best_polled_qps / best_quiet_qps : 0.0;

  // Attribution exactness over the wire: the server's cumulative OK
  // count must equal what the clients counted, across all five phases.
  int64_t stats_ok_count = -1;
  {
    Result<std::unique_ptr<ServiceClient>> final_client =
        ServiceClient::Connect(service.socket_path());
    SJ_CHECK(final_client.ok());
    Result<std::string> stats = final_client.value()->Stats();
    SJ_CHECK(stats.ok());
    // A reply that does not parse reads as -1, which never matches.
    stats_ok_count = ParseJson(stats.value()).root.IntAt("queries.ok", -1);
  }
  const bool stats_attribution_exact = stats_ok_count == ok;

  QueryScheduler::Stats sched = service.scheduler_stats();
  const bool bound_respected = sched.peak_inflight <= kMaxInflight;
  const bool rejections_observed = rejected > 0 && sched.rejected >= rejected;
  // A scaled-down run (CI under TSan) may legitimately never exceed the
  // admission bound; the rejection invariant only gates the exit code
  // when the offered load makes rejections certain. The artifact still
  // records it, and the regression gate compares the full-scale run
  // (whose seeded baseline has both booleans true).
  const bool rejections_expected = offered_inflight > kMaxInflight;

  std::printf("telemetry: p99 ratio %.3f, throughput ratio %.3f (%s); "
              "STATS ok=%lld vs clients ok=%lld (%s)\n",
              p99_ratio, throughput_ratio,
              overhead_within_bound ? "within bound" : "OVER BOUND",
              static_cast<long long>(stats_ok_count),
              static_cast<long long>(ok),
              stats_attribution_exact ? "exact" : "MISMATCH");
  std::printf("scheduler: admitted=%lld rejected=%lld peak_inflight=%lld "
              "(bound %d %s)\n",
              static_cast<long long>(sched.admitted),
              static_cast<long long>(sched.rejected),
              static_cast<long long>(sched.peak_inflight), kMaxInflight,
              bound_respected ? "respected" : "EXCEEDED");

  // --- Deadline and cancel probes ----------------------------------------
  // The heavyweight all-match join runs orders of magnitude past 2ms, so
  // both probes land deterministically mid-flight.
  bool deadline_probe_ok = false;
  bool cancel_probe_ok = false;
  {
    Result<std::unique_ptr<ServiceClient>> probe =
        ServiceClient::Connect(service.socket_path());
    SJ_CHECK(probe.ok());
    JoinRequest heavy;
    heavy.dataset_id = 1;
    heavy.strategy = JoinStrategy::kTreeJoin;
    heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
    heavy.op_param = 1200.0;  // every pair within distance: maximal work
    heavy.deadline_ns = 2'000'000;
    Result<Reply> reply = probe.value()->Join(heavy);
    deadline_probe_ok = reply.ok() &&
                        reply.value().type == MessageType::kError &&
                        reply.value().error_code ==
                            StatusCode::kDeadlineExceeded;

    heavy.deadline_ns = 0;
    Result<uint64_t> id = probe.value()->SendJoin(heavy);
    SJ_CHECK(id.ok());
    SJ_CHECK_OK(probe.value()->Cancel(id.value()));
    reply = probe.value()->WaitReply(id.value());
    cancel_probe_ok = reply.ok() &&
                      reply.value().type == MessageType::kError &&
                      reply.value().error_code == StatusCode::kCancelled;
  }
  std::printf("deadline probe: %s, cancel probe: %s\n",
              deadline_probe_ok ? "DEADLINE_EXCEEDED" : "UNEXPECTED REPLY",
              cancel_probe_ok ? "CANCELLED" : "UNEXPECTED REPLY");

  service.Stop();
  audit::AuditReport pool_audit = audit::AuditThreadPool(pool);

  const bool sustained_kilo_inflight = offered_inflight >= 1000;
  // Like the rejection invariant above, the overhead bound only gates
  // the exit code at full scale: a scaled-down run's phases last a few
  // hundred ms (comparable to one scheduling quantum on an oversubscribed
  // box, and CI runs that size under TSan's 5-20x timing distortion), so
  // its p99 cannot resolve a 5% budget. The artifact still records the
  // boolean either way; the regression gate compares the full-scale run.
  const bool overhead_gates_exit = sustained_kilo_inflight;
  const bool all_ok = all_accounted && other == 0 && bound_respected &&
                      (rejections_observed || !rejections_expected) &&
                      deadline_probe_ok && cancel_probe_ok && ok > 0 &&
                      stats_poll_ok.load() && stats_polls.load() > 0 &&
                      stats_attribution_exact &&
                      (overhead_within_bound || !overhead_gates_exit) &&
                      pool_audit.ok();

  std::ostringstream load_json;
  JsonWriter w(load_json);
  w.BeginObject();
  w.KV("workers_flagged", int64_t{args.threads});
  w.KV("clients", int64_t{clients});
  w.KV("window", int64_t{window});
  w.KV("offered_inflight", int64_t{offered_inflight});
  w.KV("admission_bound", int64_t{kMaxInflight});
  w.KV("requests_total", total);
  w.Key("invariants");
  w.BeginObject();
  w.KV("all_replies_accounted", all_accounted);
  w.KV("no_unexpected_errors", other == 0);
  w.KV("admission_bound_respected", bound_respected);
  w.KV("rejections_observed", rejections_observed);
  w.KV("sustained_kilo_inflight", sustained_kilo_inflight);
  w.KV("deadline_probe_deadline_exceeded", deadline_probe_ok);
  w.KV("cancel_probe_cancelled", cancel_probe_ok);
  w.KV("some_queries_succeeded", ok > 0);
  w.KV("stats_poll_ok", stats_poll_ok.load() && stats_polls.load() > 0);
  w.KV("stats_attribution_exact", stats_attribution_exact);
  w.KV("telemetry_overhead_within_bound", overhead_within_bound);
  w.KV("pool_audit_ok", pool_audit.ok());
  w.EndObject();
  // Timing-dependent admitted/rejected splits per phase: informational,
  // ignored by the regression gate ("*.load.*" / "*.polled.*").
  w.Key("load");
  w.BeginObject();
  w.KV("ok", quiet1.ok + quiet2.ok);
  w.KV("rejected", quiet1.rejected + quiet2.rejected);
  w.KV("other", quiet1.other + quiet2.other);
  w.KV("scheduler_admitted", sched.admitted);
  w.KV("scheduler_rejected", sched.rejected);
  w.KV("scheduler_peak_inflight", sched.peak_inflight);
  w.EndObject();
  w.Key("polled");
  w.BeginObject();
  w.KV("ok", polled1.ok + polled2.ok);
  w.KV("rejected", polled1.rejected + polled2.rejected);
  w.KV("other", polled1.other + polled2.other);
  w.KV("stats_polls", stats_polls.load());
  w.KV("stats_ok_count", stats_ok_count);
  w.EndObject();
  // Latency keys (best-of-two phase each side): ignored by default,
  // gated by --latency-rel-tol.
  w.Key("latency_ns");
  WritePhaseLatency(&w, quiet);
  w.KV("throughput_qps", best_quiet_qps);
  w.Key("polled_latency_ns");
  WritePhaseLatency(&w, polled);
  w.KV("polled_throughput_qps", best_polled_qps);
  // Overhead ratios: named so "*latency_ns.*" / "*throughput_qps*"
  // ignore them by default — visible in the artifact, never gating.
  w.Key("telemetry_overhead");
  w.BeginObject();
  w.Key("latency_ns");
  w.BeginObject();
  w.KV("p99_ratio", p99_ratio);
  w.EndObject();
  w.KV("throughput_qps_ratio", throughput_ratio);
  w.EndObject();
  w.KV("wall_ns", warmup.wall_ns + quiet1.wall_ns + quiet2.wall_ns +
                      polled1.wall_ns + polled2.wall_ns);
  w.EndObject();

  bench::WriteMetricsArtifact("bench_service_load",
                              {{"service_load", load_json.str()},
                               {"audit", pool_audit.ToJson()}});
  bench::MaybeWriteTrace(args);
  bench::MaybeWriteFlightDump(args);
  std::cout << (all_ok ? "service load invariants hold\n"
                       : "SERVICE LOAD INVARIANT FAILED — see above\n");
  return all_ok ? 0 : 1;
}
