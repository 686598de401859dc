// join_rect / join_poly: R ⋈overlaps S by the three in-memory strategies
// (sequential tree join, parallel tree join, PBSM) through the ExecuteJoin
// dispatcher, then a closed-loop stream of small SELECT and JOIN calls on
// the same data distribution. Every output is checked against the
// sequential tree join's (or, for the stream, against answers computed
// once before timing starts).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/join.h"
#include "core/select.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "exec/parallel_join.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace spatialjoin;

namespace {

constexpr int kSetupReps = 3;
constexpr int kWindows = 64;
constexpr int kMinRounds = 3;
constexpr size_t kThetaSamplePairs = 2048;

using Matches = std::vector<std::pair<int64_t, int64_t>>;

struct Sizes {
  DataSpec big;
  DataSpec small;
  double window_min = 0.0;
  double window_max = 0.0;
  int stream_per_round = 0;  // SELECT + small JOIN pairs per round
};

// Rectangles keep bench_parallel_join's extents (5-40) at a fixed density
// of about three S partners per R tuple; polygons are 16-gons whose MBRs
// have the same extents, so the two workloads differ in θ cost, not in
// the shape of the trees. The BufferPool (1024 frames of 4 KiB) holds
// join_rect's relations (~680 pages) but not join_poly's (~1700).
Sizes SizesFor(Shape shape, bool tiny) {
  Sizes z;
  z.big.shape = shape;
  z.small.shape = shape;
  z.big.tuples = shape == Shape::kRect ? 30000 : 12000;
  if (tiny) z.big.tuples = shape == Shape::kRect ? 3000 : 800;
  z.big.world = 1000.0 * std::sqrt(static_cast<double>(z.big.tuples) / 1500.0);
  z.big.pool_frames = 1024;
  z.stream_per_round = shape == Shape::kRect ? 40 : 20;
  z.small.tuples = 400;
  z.small.world = 600.0;
  z.small.rtree_fanout = 8;
  z.small.pool_frames = 512;
  if (shape == Shape::kRect) {
    z.big.min_size = 5.0;
    z.big.max_size = 40.0;
    z.small.min_size = 2.0;
    z.small.max_size = 30.0;
  } else {
    z.big.min_size = 2.5;
    z.big.max_size = 20.0;
    z.small.min_size = 0.5;
    z.small.max_size = 7.5;
  }
  z.window_min = z.big.world / 40.0;
  z.window_max = z.big.world / 20.0;
  return z;
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}


std::string SummaryText(const char* name, const std::vector<double>& ms) {
  const Summary s = Summarize(ms);
  char buf[160];
  if (s.tail_q > 0.0) {
    std::snprintf(buf, sizeof(buf), "%-18s median %.3f ms, p%.1f %.3f ms, n=%zu",
                  name, s.median, 100.0 * s.tail_q, s.tail, s.n);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%-18s median %.3f ms, n=%zu (too few samples for a tail)",
                  name, s.median, s.n);
  }
  return buf;
}

// Pairs of R and S items whose MBRs overlap, drawn from the first R items
// in tuple order: the θ / Θ per-call timing sample.
std::vector<std::pair<const exec::JoinItem*, const exec::JoinItem*>>
MbrOverlapSample(const std::vector<exec::JoinItem>& r,
                 const std::vector<exec::JoinItem>& s) {
  std::vector<std::pair<const exec::JoinItem*, const exec::JoinItem*>> out;
  for (const exec::JoinItem& a : r) {
    for (const exec::JoinItem& b : s) {
      if (a.mbr.Overlaps(b.mbr)) out.emplace_back(&a, &b);
      if (out.size() >= kThetaSamplePairs) return out;
    }
  }
  return out;
}

// Per-call ns of `call` over the sample, repeated for at least 20 ms.
template <typename Call>
double PerCallNs(size_t sample_size, Call call) {
  if (sample_size == 0) return 0.0;
  int64_t calls = 0;
  int64_t hits = 0;
  const int64_t start = NowNs();
  do {
    for (size_t i = 0; i < sample_size; ++i) hits += call(i) ? 1 : 0;
    calls += static_cast<int64_t>(sample_size);
  } while (NowNs() - start < 20'000'000);
  const double ns = static_cast<double>(NowNs() - start);
  volatile int64_t sink = hits;  // keeps the calls' results observable
  (void)sink;
  return ns / static_cast<double>(calls);
}

}  // namespace

void RunJoinWorkload(const Args& args, Shape shape, Report* report,
                     Tracer* tracer) {
  const Sizes sizes = SizesFor(shape, args.tiny);
  const OverlapsOp op;

  // --- Set-up, repeated: inputs, R-trees, FrozenTrees, query windows ----
  std::unique_ptr<Dataset> big_data;
  std::unique_ptr<Dataset> small_data;
  std::vector<Rectangle> windows;
  std::vector<double> setup_s, gen_ms, load_ms, build_ms, materialize_ms;
  BufferPoolStats setup_pool;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    big_data.reset();
    small_data.reset();
    const int64_t op_id = tracer->NewOperation();
    Tracer::Scope span(tracer, "setup", op_id);
    const int64_t start = NowNs();
    big_data = std::make_unique<Dataset>(
        BuildDataset(sizes.big, SubSeed(args.seed, 10), tracer, op_id));
    small_data = std::make_unique<Dataset>(
        BuildDataset(sizes.small, SubSeed(args.seed, 11), tracer, op_id));
    windows = MakeWindows(SubSeed(args.seed, 12), kWindows, sizes.big.world,
                          sizes.window_min, sizes.window_max);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const SetupTimes& t = big_data->times;
    const SetupTimes& u = small_data->times;
    gen_ms.push_back(t.gen_ms + u.gen_ms);
    load_ms.push_back(t.load_ms + u.load_ms);
    build_ms.push_back(t.build_ms + u.build_ms);
    materialize_ms.push_back(t.materialize_ms + u.materialize_ms);
    setup_pool = big_data->pool->stats();
  }
  Dataset& big = *big_data;
  Dataset& small = *small_data;
  const double setup_rss_mb = PeakRssMb();

  exec::ThreadPool pool(kWorkers);
  exec::ThreadPool pool_w1(1);

  SpatialJoinContext tree_ctx;
  tree_ctx.r_tree = big.r_frozen.get();
  tree_ctx.s_tree = big.s_frozen.get();
  SpatialJoinContext par_ctx = tree_ctx;
  par_ctx.exec_pool = &pool;
  SpatialJoinContext pbsm_ctx;
  pbsm_ctx.r = big.r.get();
  pbsm_ctx.col_r = 1;
  pbsm_ctx.s = big.s.get();
  pbsm_ctx.col_s = 1;
  pbsm_ctx.exec_pool = &pool;
  SpatialJoinContext small_ctx;
  small_ctx.r_tree = small.r_frozen.get();
  small_ctx.s_tree = small.s_frozen.get();
  SpatialJoinContext select_ctx;
  select_ctx.s_tree = big.s_frozen.get();

  // --- Reference answers (untimed; also warms every code path) ----------
  const JoinResult reference = ExecuteJoin(JoinStrategy::kTreeJoin, tree_ctx, op);
  const Matches expected = Normalized(reference);
  const MatchDigest digest = Digest(reference);
  const Matches small_expected =
      Normalized(ExecuteJoin(JoinStrategy::kTreeJoin, small_ctx, op));
  std::vector<Matches> select_expected;
  for (const Rectangle& w : windows) {
    select_expected.push_back(Normalized(ExecuteSelect(
        SelectStrategy::kTree, select_ctx, Value(w), kInvalidTupleId, op)));
  }
  (void)ExecuteJoin(JoinStrategy::kParallelTreeJoin, par_ctx, op);
  (void)ExecuteJoin(JoinStrategy::kPartitionedJoin, pbsm_ctx, op);
  big.pool->ResetStats();

  // --- Measured rounds ----------------------------------------------------
  std::vector<double> tree_ms, par_ms, pbsm_ms, select_ms, small_join_ms;
  // Traced run only: the same work called below the dispatcher.
  std::vector<double> tree_direct_ms, par_direct_ms, par_w1_ms, collect_ms,
      pbsm_direct_ms, pbsm_w1_ms, select_direct_us, join_direct_ms;
  std::vector<double> pool_tasks, pool_steals;
  int64_t pbsm_theta_upper = 0;
  Rng stream_rng(SubSeed(args.seed, 13));

  auto check = [&](const char* what, const Matches& want,
                   const JoinResult& got) {
    Tracer::Scope span(tracer, "bench.check", 0);
    report->Attempt(Normalized(got) == want,
                    std::string(what) + " differs from the sequential tree join");
  };
  // Times one ExecuteJoin / ExecuteSelect call as its own operation.
  auto timed = [&](const char* span_name, std::vector<double>* ms, auto call) {
    Tracer::Scope span(tracer, span_name, tracer->NewOperation());
    const int64_t start = NowNs();
    JoinResult result = call();
    ms->push_back(MsSince(start));
    return result;
  };

  const int64_t measure_start = NowNs();
  const int64_t measure_end =
      measure_start + static_cast<int64_t>(args.seconds * 1e9);
  int rounds = 0;
  while (rounds < kMinRounds || NowNs() < measure_end) {
    ++rounds;
    check("tree_join", expected,
          timed("core.execute_join.tree_join", &tree_ms, [&] {
            return ExecuteJoin(JoinStrategy::kTreeJoin, tree_ctx, op);
          }));
    check("parallel_tree_join", expected,
          timed("core.execute_join.parallel_tree_join", &par_ms, [&] {
            return ExecuteJoin(JoinStrategy::kParallelTreeJoin, par_ctx, op);
          }));
    check("partitioned_join", expected,
          timed("core.execute_join.partitioned_join", &pbsm_ms, [&] {
            return ExecuteJoin(JoinStrategy::kPartitionedJoin, pbsm_ctx, op);
          }));

    for (int i = 0; i < sizes.stream_per_round; ++i) {
      const size_t w = stream_rng.NextUint64(kWindows);
      check("select", select_expected[w],
            timed("core.execute_select", &select_ms, [&] {
              return ExecuteSelect(SelectStrategy::kTree, select_ctx,
                                   Value(windows[w]), kInvalidTupleId, op);
            }));
      check("small tree_join", small_expected,
            timed("core.execute_join.small", &small_join_ms, [&] {
              return ExecuteJoin(JoinStrategy::kTreeJoin, small_ctx, op);
            }));
    }

    if (!tracer->enabled()) continue;
    check("TreeJoin", expected, timed("core.tree_join", &tree_direct_ms, [&] {
            return TreeJoin(*big.r_frozen, *big.s_frozen, op);
          }));
    const exec::ThreadPool::Stats before = pool.stats();
    check("ParallelTreeJoin", expected,
          timed("exec.parallel_tree_join", &par_direct_ms, [&] {
            return exec::ParallelTreeJoin(*big.r_frozen, *big.s_frozen, op,
                                          &pool);
          }));
    const exec::ThreadPool::Stats after = pool.stats();
    pool_tasks.push_back(
        static_cast<double>(after.tasks_executed - before.tasks_executed));
    pool_steals.push_back(
        static_cast<double>(after.tasks_stolen - before.tasks_stolen));
    check("ParallelTreeJoin(W=1)", expected,
          timed("exec.parallel_tree_join.w1", &par_w1_ms, [&] {
            return exec::ParallelTreeJoin(*big.r_frozen, *big.s_frozen, op,
                                          &pool_w1);
          }));
    std::vector<exec::JoinItem> r_items, s_items;
    {
      Tracer::Scope span(tracer, "exec.collect_join_items",
                         tracer->NewOperation());
      const int64_t start = NowNs();
      r_items = exec::CollectJoinItems(*big.r, 1);
      s_items = exec::CollectJoinItems(*big.s, 1);
      collect_ms.push_back(MsSince(start));
    }
    JoinResult pbsm = timed("exec.partitioned_join", &pbsm_direct_ms, [&] {
      return exec::PartitionedJoin(r_items, s_items, op, &pool);
    });
    pbsm_theta_upper = pbsm.theta_upper_tests;
    check("PartitionedJoin", expected, pbsm);
    check("PartitionedJoin(W=1)", expected,
          timed("exec.partitioned_join.w1", &pbsm_w1_ms, [&] {
            return exec::PartitionedJoin(r_items, s_items, op, &pool_w1);
          }));
    for (int i = 0; i < sizes.stream_per_round; ++i) {
      const size_t w = stream_rng.NextUint64(kWindows);
      Tracer::Scope span(tracer, "core.spatial_select", tracer->NewOperation());
      const int64_t start = NowNs();
      const SelectResult sel = SpatialSelect(Value(windows[w]), *big.s_frozen, op);
      select_direct_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      report->Attempt(sel.matching_tuples.size() == select_expected[w].size(),
                      "SpatialSelect differs from ExecuteSelect");
    }
    for (int i = 0; i < sizes.stream_per_round; ++i) {
      check("small TreeJoin", small_expected,
            timed("core.tree_join.small", &join_direct_ms, [&] {
              return TreeJoin(*small.r_frozen, *small.s_frozen, op);
            }));
    }
  }
  const double measured_s = static_cast<double>(NowNs() - measure_start) / 1e9;

  // --- End-to-end metrics -------------------------------------------------
  double stream_s = 0.0;
  for (double ms : select_ms) stream_s += ms / 1e3;
  for (double ms : small_join_ms) stream_s += ms / 1e3;
  report->Set("setup_s", Median(setup_s));
  report->Set("peak_rss_mb", setup_rss_mb);
  report->Set("tree_join_ms", Median(tree_ms));
  report->Set("tree_join_par_ms", Median(par_ms));
  report->Set("pbsm_join_ms", Median(pbsm_ms));
  report->Set("select_p50_ms", Median(select_ms));
  report->Set("select_p99_ms", P99(select_ms));
  report->Set("join_p50_ms", Median(small_join_ms));
  report->Set("join_p99_ms", P99(small_join_ms));
  report->Set("goodput_qps",
              static_cast<double>(select_ms.size() + small_join_ms.size()) /
                  stream_s);

  // --- Notes: sizes, configuration, correctness digest ---------------------
  const char* name = shape == Shape::kRect ? "join_rect" : "join_poly";
  char line[512];
  std::snprintf(line, sizeof(line),
                "workload %s seed %llu: %lld tuples per side (%s), world %.0f, "
                "relations %lld pages + R-trees = %lld pages of %zu B vs "
                "BufferPool %lld frames; nproc %u, pool width %d",
                name, static_cast<unsigned long long>(args.seed),
                static_cast<long long>(sizes.big.tuples),
                shape == Shape::kRect ? "rectangles 5-40"
                                      : "16-vertex polygons r 2.5-20",
                sizes.big.world, static_cast<long long>(big.relation_pages()),
                static_cast<long long>(big.disk_pages()), sizes.big.page_bytes,
                static_cast<long long>(sizes.big.pool_frames),
                std::thread::hardware_concurrency(), kWorkers);
  report->Note(line);
  std::snprintf(line, sizeof(line),
                "check: workload=%s seed=%llu matches=%lld hash=%016llx",
                name, static_cast<unsigned long long>(args.seed),
                static_cast<long long>(digest.count),
                static_cast<unsigned long long>(digest.hash));
  report->Note(line);
  std::snprintf(line, sizeof(line),
                "measured %.2f s: %d rounds, stream of %zu SELECT + %zu JOIN",
                measured_s, rounds, select_ms.size(), small_join_ms.size());
  report->Note(line);
  std::snprintf(line, sizeof(line), "peak RSS %.1f MB after set-up, %.1f MB "
                "over the whole run", setup_rss_mb, PeakRssMb());
  report->Note(line);
  report->Note(SummaryText("tree_join", tree_ms));
  report->Note(SummaryText("tree_join_par", par_ms));
  report->Note(SummaryText("pbsm_join", pbsm_ms));
  report->Note(SummaryText("select", select_ms));
  report->Note(SummaryText("small join", small_join_ms));

  if (!tracer->enabled()) return;

  // --- Per-layer metrics (traced run) -------------------------------------
  report->Set("workload.gen_ms", Median(gen_ms));
  report->Set("storage.load_ms", Median(load_ms));
  report->Set("rtree.build_ms", Median(build_ms));
  report->Set("exec.materialize_ms", Median(materialize_ms));
  report->Set("storage.setup_hit_ratio", setup_pool.hit_rate());
  report->Set("storage.setup_accesses",
              static_cast<double>(setup_pool.hits + setup_pool.misses));
  const BufferPoolStats measured_pool = big.pool->stats();
  report->Set("storage.pool_hit_ratio", measured_pool.hit_rate());
  report->Set("storage.pool_accesses",
              static_cast<double>(measured_pool.hits + measured_pool.misses));
  report->Set("storage.relation_pages",
              static_cast<double>(big.relation_pages()));
  report->Set("storage.pool_frames", static_cast<double>(sizes.big.pool_frames));
  report->Set("core.tree_join_direct_ms", Median(tree_direct_ms));
  report->Set("core.theta_upper_tests",
              static_cast<double>(reference.theta_upper_tests));
  report->Set("core.theta_tests", static_cast<double>(reference.theta_tests));
  report->Set("core.qual_pairs",
              static_cast<double>(reference.qual_pairs_examined));
  report->Set("core.nodes_accessed",
              static_cast<double>(reference.nodes_accessed));
  report->Set("core.filter_yield",
              static_cast<double>(reference.theta_tests) /
                  static_cast<double>(reference.theta_upper_tests));
  report->Set("core.refine_yield",
              static_cast<double>(reference.matches.size()) /
                  static_cast<double>(reference.theta_tests));
  report->Set("exec.par_tree_direct_ms", Median(par_direct_ms));
  report->Set("exec.par_tree_w1_ms", Median(par_w1_ms));
  report->Set("exec.par_tree_speedup", Median(tree_ms) / Median(par_ms));
  report->Set("exec.pool_tasks", Median(pool_tasks));
  report->Set("exec.pool_steals", Median(pool_steals));
  report->Set("exec.collect_items_ms", Median(collect_ms));
  report->Set("exec.pbsm_direct_ms", Median(pbsm_direct_ms));
  report->Set("exec.pbsm_w1_ms", Median(pbsm_w1_ms));
  report->Set("exec.pbsm_theta_upper_tests",
              static_cast<double>(pbsm_theta_upper));
  report->Set("core.select_direct_us", Median(select_direct_us));
  report->Set("core.join_direct_ms", Median(join_direct_ms));

  const std::vector<exec::JoinItem> r_items = exec::CollectJoinItems(*big.r, 1);
  const std::vector<exec::JoinItem> s_items = exec::CollectJoinItems(*big.s, 1);
  const auto sample = MbrOverlapSample(r_items, s_items);
  {
    Tracer::Scope span(tracer, "geometry.theta_upper", tracer->NewOperation());
    report->Set("geometry.theta_upper_ns", PerCallNs(sample.size(), [&](size_t i) {
                  return op.ThetaUpper(sample[i].first->mbr,
                                       sample[i].second->mbr);
                }));
  }
  {
    Tracer::Scope span(tracer, "geometry.theta", tracer->NewOperation());
    report->Set("geometry.theta_ns", PerCallNs(sample.size(), [&](size_t i) {
                  return op.Theta(sample[i].first->geometry,
                                  sample[i].second->geometry);
                }));
  }
  report->Set("geometry.sample_pairs", static_cast<double>(sample.size()));
}

}  // namespace perfbench
