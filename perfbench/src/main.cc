// The repository benchmark's measuring program.
//
//   sj_perfbench --workload <join_rect|join_poly|svc_steady|svc_overload>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--scale tiny] [--out-dir <dir>]
//
// Builds seeded inputs, drives the library and the query service through
// their public entry points for --seconds, checks every output, prints a
// human-readable report and, as the last line, one JSON result: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The traced run also writes its spans to <out-dir>/trace-<workload>-
// <seed>.json. perfbench/README.md documents every metric.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "median set-up: inputs, R-trees, FrozenTrees, server"},
      {"peak_rss_mb", "MB", "peak resident memory through set-up"},
      {"tree_join_ms", "ms", "median ExecuteJoin(kTreeJoin), no pool"},
      {"goodput_qps", "1/s", "OK answers (within the limit on svc_*) per second"},
  };
  return defs;
}

// Printed but not gated. On a shared 4-vCPU host, thread wake-ups and
// stalls moved these by more than any bound the gate allows (<= 25%)
// between runs: the parallel strategies on svc_steady's small pair (a few
// ms, so every level barrier's wake-up shows), the service's latency
// medians by 20-50%, and the tails several-fold. The 99th percentile is
// the highest one with at least ten samples beyond it in every series
// here (n >= 1000).
const std::vector<MetricDef>& UngatedCatalog() {
  static const std::vector<MetricDef> defs = {
      {"tree_join_par_ms", "ms", "median ExecuteJoin(kParallelTreeJoin), 3 workers + caller"},
      {"pbsm_join_ms", "ms", "median ExecuteJoin(kPartitionedJoin), 3 workers + caller"},
      {"select_p50_ms", "ms", "SELECT latency, median"},
      {"select_p99_ms", "ms", "SELECT latency, 99th percentile"},
      {"join_p50_ms", "ms", "small JOIN latency, median"},
      {"join_p99_ms", "ms", "small JOIN latency, 99th percentile"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerCatalog() {
  static const std::vector<MetricDef> defs = {
      {"workload.gen_ms", "ms", "setup_s (all)"},
      {"storage.load_ms", "ms", "setup_s (all)"},
      {"rtree.build_ms", "ms", "setup_s (all)"},
      {"exec.materialize_ms", "ms", "setup_s (all)"},
      {"server.start_ms", "ms", "setup_s (svc_*)"},
      {"storage.setup_hit_ratio", "fraction", "setup_s (join_poly); base storage.setup_accesses"},
      {"storage.setup_accesses", "count", "base of storage.setup_hit_ratio"},
      {"storage.pool_hit_ratio", "fraction", "pbsm_join_ms (join_poly); base storage.pool_accesses"},
      {"storage.pool_accesses", "count", "base of storage.pool_hit_ratio"},
      {"storage.relation_pages", "count", "size: R+S relation pages, against storage.pool_frames"},
      {"storage.pool_frames", "count", "size: BufferPool frames"},
      {"core.tree_join_direct_ms", "ms", "tree_join_ms (join_*); the gap is the dispatcher"},
      {"core.theta_upper_tests", "count", "tree_join_ms (join_rect)"},
      {"core.theta_tests", "count", "tree_join_ms (join_rect)"},
      {"core.qual_pairs", "count", "tree_join_ms (join_rect)"},
      {"core.nodes_accessed", "count", "tree_join_ms (join_rect)"},
      {"core.filter_yield", "fraction", "tree_join_ms (join_rect); theta tests / Theta tests"},
      {"core.refine_yield", "fraction", "tree_join_ms (join_poly); matches / theta tests"},
      {"geometry.theta_upper_ns", "ns", "tree_join_ms (join_rect)"},
      {"geometry.theta_ns", "ns", "tree_join_ms (join_poly)"},
      {"geometry.sample_pairs", "count", "base of the two geometry timings"},
      {"exec.par_tree_direct_ms", "ms", "tree_join_par_ms (join_*); the gap is re-materializing"},
      {"exec.par_tree_w1_ms", "ms", "tree_join_par_ms (join_rect); gate: >= 0.95x sequential"},
      {"exec.par_tree_speedup", "x", "tree_join_par_ms (join_rect); tree_join_ms / tree_join_par_ms"},
      {"exec.pool_tasks", "count", "tree_join_par_ms (join_rect); tasks per join"},
      {"exec.pool_steals", "count", "tree_join_par_ms (join_rect); steals per join"},
      {"exec.collect_items_ms", "ms", "pbsm_join_ms (join_*)"},
      {"exec.pbsm_direct_ms", "ms", "pbsm_join_ms (join_*)"},
      {"exec.pbsm_w1_ms", "ms", "pbsm_join_ms (join_*)"},
      {"exec.pbsm_theta_upper_tests", "count", "pbsm_join_ms (join_*)"},
      {"core.select_direct_us", "us", "select_p50_ms (svc_steady, printed): its floor"},
      {"core.join_direct_ms", "ms", "join_p50_ms (svc_steady, printed): its floor"},
      {"server.encode_request_ns", "ns", "select_p50_ms (svc_steady)"},
      {"server.decode_reply_ns", "ns", "select_p50_ms (svc_steady)"},
      {"server.reply_bytes", "B", "select_p50_ms (svc_steady); mean frame size"},
      {"server.query_wall_p50_ms", "ms", "select_p99_ms, join_p99_ms (svc_overload)"},
      {"server.queue_wait_p50_ms", "ms", "select_p99_ms, join_p99_ms (svc_overload)"},
      {"server.queue_wait_p99_ms", "ms", "select_p99_ms, join_p99_ms (svc_overload)"},
      {"server.admitted", "count", "goodput_qps (svc_overload)"},
      {"server.rejected", "count", "goodput_qps, fail_frac (svc_overload)"},
      {"server.peak_inflight", "count", "goodput_qps (svc_overload)"},
      {"server.stopped", "count", "goodput_qps, fail_frac (svc_overload)"},
      {"loadgen.late_p99_ms", "ms", "none: run validity, bound 2 ms"},
      {"loadgen.offered_qps", "1/s", "none: run validity"},
      {"bench.trace_overhead_frac", "fraction", "none: run validity"},
  };
  return defs;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scale") {
      args->tiny = std::strcmp(value, "tiny") == 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->seconds <= 120.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sj_perfbench --workload <name> --seed <n> "
                 "--seconds <1-120> --trace <0|1> [--scale tiny] "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  const int64_t start = NowNs();
  Tracer tracer(args.trace);
  Report report(EndToEndCatalog(), UngatedCatalog(), LayerCatalog());
  if (args.workload == "join_rect") {
    RunJoinWorkload(args, Shape::kRect, &report, &tracer);
  } else if (args.workload == "join_poly") {
    RunJoinWorkload(args, Shape::kPolygon, &report, &tracer);
  } else if (args.workload == "svc_steady") {
    RunServiceWorkload(args, /*overload=*/false, &report, &tracer);
  } else if (args.workload == "svc_overload") {
    RunServiceWorkload(args, /*overload=*/true, &report, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    // Recording cost of every span, as a share of the run's wall time.
    const double run_ns = static_cast<double>(NowNs() - start);
    const double overhead = static_cast<double>(tracer.spans().size()) *
                            Tracer::MeasureSpanCostNs() / run_ns;
    report.Set("bench.trace_overhead_frac", overhead);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    std::printf("%zu spans written to %s%s\n", tracer.spans().size(),
                path.c_str(), tracer.WriteJson(path) ? "" : " (FAILED)");
    std::printf("\n%-40s %8s %12s %12s\n", "span (self time = minus children)",
                "count", "total ms", "self ms");
    for (const Tracer::SelfTime& t : tracer.SelfTimes()) {
      std::printf("%-40s %8lld %12.3f %12.3f\n", t.name.c_str(),
                  static_cast<long long>(t.count), t.total_ms, t.self_ms);
    }
  }
  return report.Print(args.trace);
}
