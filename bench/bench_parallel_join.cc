// Experiment E-PAR — the exec layer's parallel strategies on a UNIFORM
// workload: Algorithm JOIN with QualPairs chunks claimed by the pool's
// workers and the caller, and the PBSM-style partitioned join, swept
// over thread counts and grid granularities. Every run is verified
// against the sequential result before its timing is reported, and the
// trees plus the pool are audited after the probes. Emits
// bench_parallel_join.metrics.json with the speedup curves (plus the
// host's hardware_threads, so a 1-core CI runner's flat curve is
// distinguishable from a real regression).
//
// Usage: bench_parallel_join [--threads=N] [--trace=out.trace.json]
// (N pins the sweep to one width; default sweeps 1, 2, 4, 8. --trace
// enables span tracing and writes a Perfetto-loadable timeline with one
// track per worker thread.)
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/exec_audit.h"
#include "audit/rtree_audit.h"
#include "core/join.h"
#include "core/select.h"
#include "core/spatial_join.h"
#include "exec/frozen_tree.h"
#include "exec/parallel_join.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/rect_generator.h"

#include "figure_common.h"

using namespace spatialjoin;
using spatialjoin::bench::TimeBestOf;

namespace {

struct Fixture {
  DiskManager disk{4000};
  BufferPool pool{&disk, 1024};
  std::unique_ptr<Relation> r;
  std::unique_ptr<Relation> s;
  std::unique_ptr<RTree> r_rtree;
  std::unique_ptr<RTree> s_rtree;
  std::unique_ptr<RTreeGenTree> r_tree;
  std::unique_ptr<RTreeGenTree> s_tree;
};

std::unique_ptr<Fixture> MakeFixture(int n_tuples) {
  auto f = std::make_unique<Fixture>();
  Schema schema({{"id", ValueType::kInt64},
                 {"box", ValueType::kRectangle}});
  f->r = std::make_unique<Relation>("r", schema, &f->pool,
                                    RelationLayout::kClustered, 300);
  f->s = std::make_unique<Relation>("s", schema, &f->pool,
                                    RelationLayout::kClustered, 300);
  f->r_rtree = std::make_unique<RTree>(&f->pool, RTreeSplit::kQuadratic);
  f->s_rtree = std::make_unique<RTree>(&f->pool, RTreeSplit::kQuadratic);
  Rectangle world(0, 0, 2000, 2000);
  RectGenerator gen_r(world, 11);
  RectGenerator gen_s(world, 22);
  for (int64_t i = 0; i < n_tuples; ++i) {
    Rectangle br = gen_r.NextRect(5, 40);
    Rectangle bs = gen_s.NextRect(5, 40);
    f->r_rtree->Insert(br, f->r->Insert(Tuple({Value(i), Value(br)})));
    f->s_rtree->Insert(bs, f->s->Insert(Tuple({Value(i), Value(bs)})));
  }
  f->r_tree = std::make_unique<RTreeGenTree>(f->r_rtree.get(), f->r.get(), 1);
  f->s_tree = std::make_unique<RTreeGenTree>(f->s_rtree.get(), f->s.get(), 1);
  return f;
}

constexpr int kReps = 3;

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  std::vector<int> widths = {1, 2, 4, 8};
  if (args.threads > 0) widths = {args.threads};

  const int hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  std::cout << "E-PAR — parallel join strategies, UNIFORM workload "
            << "(hardware threads: " << hardware_threads << ")\n";

  MetricsRegistry::Global().ResetAll();
  auto f = MakeFixture(1500);
  OverlapsOp op;

  // Snapshot once; the sweep then measures pure compute scaling.
  exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(*f->r_tree);
  exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*f->s_tree);

  JoinResult baseline;
  double baseline_ns = TimeBestOf(kReps, [&] {
    baseline = TreeJoin(r_frozen, s_frozen, op);
  });
  std::printf("%-28s wall=%10.0fns matches=%zu\n", "tree_join(sequential)",
              baseline_ns, baseline.matches.size());

  std::ostringstream curve_json;
  JsonWriter curves(curve_json);
  curves.BeginObject();
  curves.KV("hardware_threads", int64_t{hardware_threads});
  curves.KV("baseline_wall_ns", baseline_ns);
  curves.KV("matches", static_cast<int64_t>(baseline.matches.size()));

  // --- Thread sweep: ParallelTreeJoin ------------------------------------
  bool all_equal = true;
  curves.Key("parallel_tree_join");
  curves.BeginArray();
  for (int width : widths) {
    exec::ThreadPool workers(width);
    JoinResult result;
    double wall_ns = TimeBestOf(kReps, [&] {
      result = exec::ParallelTreeJoin(r_frozen, s_frozen, op, &workers);
    });
    bool equal = result.matches == baseline.matches &&
                 result.theta_tests == baseline.theta_tests;
    all_equal = all_equal && equal;
    audit::AuditReport pool_audit = audit::AuditThreadPool(workers);
    double speedup = wall_ns > 0.0 ? baseline_ns / wall_ns : 0.0;
    std::printf("parallel_tree_join  W=%d      wall=%10.0fns speedup=%.2fx "
                "helped=%lld %s%s\n",
                width, wall_ns, speedup,
                static_cast<long long>(workers.stats().tasks_stolen),
                equal ? "results-identical" : "RESULT MISMATCH",
                pool_audit.ok() ? "" : " POOL-AUDIT-FAILED");
    curves.BeginObject();
    curves.KV("threads", int64_t{width});
    curves.KV("wall_ns", wall_ns);
    curves.KV("speedup", speedup);
    curves.KV("results_identical", equal);
    curves.KV("pool_audit_ok", pool_audit.ok());
    curves.KV("tasks_stolen", workers.stats().tasks_stolen);
    curves.EndObject();
  }
  curves.EndArray();

  // --- Thread sweep x grid sweep: PartitionedJoin -------------------------
  std::vector<exec::JoinItem> r_items = exec::CollectJoinItems(*f->r, 1);
  std::vector<exec::JoinItem> s_items = exec::CollectJoinItems(*f->s, 1);
  JoinResult sorted_baseline = baseline;
  NormalizeMatches(&sorted_baseline);

  curves.Key("partitioned_join");
  curves.BeginArray();
  for (int width : widths) {
    for (int grid : {0, 8, 16, 32}) {
      exec::ThreadPool workers(width);
      exec::PartitionedJoinOptions options;
      options.grid_cols = grid;
      options.grid_rows = grid;
      JoinResult result;
      double wall_ns = TimeBestOf(kReps, [&] {
        result = exec::PartitionedJoin(r_items, s_items, op, &workers,
                                       options);
      });
      NormalizeMatches(&result);
      bool equal = result.matches == sorted_baseline.matches;
      all_equal = all_equal && equal;
      double speedup = wall_ns > 0.0 ? baseline_ns / wall_ns : 0.0;
      std::printf("partitioned_join    W=%d g=%-3d wall=%10.0fns "
                  "speedup=%.2fx %s\n",
                  width, grid, wall_ns, speedup,
                  equal ? "results-identical" : "RESULT MISMATCH");
      curves.BeginObject();
      curves.KV("threads", int64_t{width});
      curves.KV("grid", int64_t{grid});
      curves.KV("wall_ns", wall_ns);
      curves.KV("speedup_vs_sequential_tree", speedup);
      curves.KV("results_identical", equal);
      curves.EndObject();
    }
  }
  curves.EndArray();

  // --- Timeline probe ----------------------------------------------------
  // One sequential JOIN and a SELECT (the flat kernel, verified against
  // the generic one on the same snapshot) at the *tail* of the run: their
  // per-level join.level / select.level spans are the freshest events in
  // the main thread's ring, so they survive wraparound in long sweeps and
  // always appear in --trace exports.
  JoinResult tail_join = TreeJoin(r_frozen, s_frozen, op);
  bool tail_equal = tail_join.matches == baseline.matches;
  Value selector(Rectangle(500, 500, 1100, 1100));
  SelectResult select_flat = SpatialSelect(selector, r_frozen, op);
  SelectResult select_generic =
      SpatialSelectFrom(selector, r_frozen, {r_frozen.root()}, op);
  bool select_equal =
      select_flat.matching_nodes == select_generic.matching_nodes &&
      select_flat.matching_tuples == select_generic.matching_tuples &&
      select_flat.theta_upper_tests == select_generic.theta_upper_tests &&
      select_flat.theta_tests == select_generic.theta_tests;
  all_equal = all_equal && tail_equal && select_equal;
  std::printf("%-28s tuples=%zu %s\n", "select(flat vs generic)",
              select_flat.matching_tuples.size(),
              select_equal && tail_equal ? "results-identical"
                                         : "RESULT MISMATCH");
  curves.KV("select_tuples",
            static_cast<int64_t>(select_flat.matching_tuples.size()));
  curves.KV("select_results_identical", select_equal);
  curves.KV("all_results_identical", all_equal);
  curves.EndObject();

  // Post-probe structural audits: the source trees must be untouched by
  // the read-only parallel probes.
  audit::AuditReport tree_audit = audit::AuditRTree(*f->r_rtree);
  tree_audit.Merge(audit::AuditRTree(*f->s_rtree));
  std::cout << (all_equal ? "\nall parallel results identical to sequential\n"
                          : "\nRESULT MISMATCH — see rows above\n")
            << (tree_audit.ok() ? "tree audits clean\n"
                                : tree_audit.ToString());

  bench::WriteMetricsArtifact("bench_parallel_join",
                              {{"parallel", curve_json.str()},
                               {"audit", tree_audit.ToJson()}});
  bench::MaybeWriteTrace(args);
  bench::MaybeWriteFlightDump(args);
  return all_equal && tree_audit.ok() ? 0 : 1;
}
