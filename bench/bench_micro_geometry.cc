// A4 — microbenchmarks for the geometry and z-order substrates (the
// per-C_θ building blocks of every strategy), via google-benchmark.
#include <benchmark/benchmark.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/theta_ops.h"
#include "geometry/polygon.h"
#include "geometry/rectangle.h"
#include "workload/rect_generator.h"
#include "zorder/hilbert.h"
#include "zorder/zdecompose.h"
#include "zorder/zorder.h"

namespace spatialjoin {
namespace {

std::vector<Rectangle> MakeRects(int count, double min_ext, double max_ext) {
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 5);
  return gen.Rects(count, min_ext, max_ext);
}

void BM_RectangleOverlap(benchmark::State& state) {
  std::vector<Rectangle> rects = MakeRects(1024, 1, 50);
  size_t i = 0;
  for (auto _ : state) {
    const Rectangle& a = rects[i % rects.size()];
    const Rectangle& b = rects[(i * 7 + 3) % rects.size()];
    benchmark::DoNotOptimize(a.Overlaps(b));
    ++i;
  }
}
BENCHMARK(BM_RectangleOverlap);

void BM_RectangleMinDistance(benchmark::State& state) {
  std::vector<Rectangle> rects = MakeRects(1024, 1, 50);
  size_t i = 0;
  for (auto _ : state) {
    const Rectangle& a = rects[i % rects.size()];
    const Rectangle& b = rects[(i * 7 + 3) % rects.size()];
    benchmark::DoNotOptimize(a.MinDistance(b));
    ++i;
  }
}
BENCHMARK(BM_RectangleMinDistance);

void BM_PointInPolygon(benchmark::State& state) {
  int vertices = static_cast<int>(state.range(0));
  Polygon poly = Polygon::RegularNGon(Point(500, 500), 200, vertices);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 9);
  std::vector<Point> points = gen.Points(1024);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.ContainsPoint(points[i % points.size()]));
    ++i;
  }
}
BENCHMARK(BM_PointInPolygon)->Arg(8)->Arg(32)->Arg(128);

// Pairs of star polygons drawn until `count` of them have overlapping
// MBRs, so the timing is the refine, not the bounding-box reject.
std::vector<std::pair<Polygon, Polygon>> MbrOverlappingPolygons(
    int count, int vertices) {
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 13);
  std::vector<std::pair<Polygon, Polygon>> pairs;
  while (static_cast<int>(pairs.size()) < count) {
    Polygon a = gen.NextPolygon(10, 80, vertices);
    Polygon b = gen.NextPolygon(10, 80, vertices);
    if (a.BoundingBox().Overlaps(b.BoundingBox())) {
      pairs.emplace_back(std::move(a), std::move(b));
    }
  }
  return pairs;
}

void BM_PolygonIntersects(benchmark::State& state) {
  const auto pairs =
      MbrOverlappingPolygons(128, static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i % pairs.size()];
    benchmark::DoNotOptimize(a.Intersects(b));
    ++i;
  }
}
BENCHMARK(BM_PolygonIntersects)->Arg(8)->Arg(16)->Arg(32);

// θ of `overlaps` on the operand mix a polygon R-tree join refines:
// (entry MBR, polygon) and (polygon, entry MBR) from the passes that pair
// an interior entry with a leaf polygon, and (polygon, polygon) at the
// leaves. Every pair has overlapping MBRs, as Θ guarantees.
void BM_ThetaOverlaps(benchmark::State& state) {
  const OverlapsOp op;
  std::vector<std::pair<Value, Value>> pairs;
  for (const auto& [a, b] : MbrOverlappingPolygons(128, 16)) {
    // A node-sized entry box around each polygon.
    pairs.emplace_back(Value(a.BoundingBox().Expanded(20)), Value(b));
    pairs.emplace_back(Value(a), Value(b.BoundingBox().Expanded(20)));
    pairs.emplace_back(Value(a), Value(b));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i % pairs.size()];
    benchmark::DoNotOptimize(op.Theta(a, b));
    ++i;
  }
}
BENCHMARK(BM_ThetaOverlaps);

void BM_ThetaWithinDistance(benchmark::State& state) {
  WithinDistanceOp op(25.0);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 17);
  std::vector<Value> values;
  for (int i = 0; i < 256; ++i) values.emplace_back(gen.NextRect(1, 40));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.Theta(values[i % values.size()],
                                      values[(i * 3 + 1) % values.size()]));
    ++i;
  }
}
BENCHMARK(BM_ThetaWithinDistance);

// The overlap family's batched Θ (OverlapThetaUpperOp, an SSE2 bit mask)
// over rows of range(0) MBRs read from planes, as the flat kernel calls it
// a row at a time: 8 is svc_steady's small-join fanout, 33 an odd row
// that ends in the scalar tail, 102 join_rect's page-derived fanout
// (two mask words). Probe sides are chosen so about range(1) percent of
// the elements pass: 3 is join_rect's JOIN2 yield (2.4%), 50 a row where
// half pass. `per_element` is seconds per element (ns shown as "n");
// `pass_rate` is the measured share of set bits.
void BM_ThetaUpperBatch(benchmark::State& state) {
  const int64_t n = state.range(0);
  const double pass = static_cast<double>(state.range(1)) / 100.0;
  constexpr int64_t kRows = 256;
  constexpr double kWorld = 1000.0;
  RectGenerator gen(Rectangle(0, 0, kWorld, kWorld), 23);
  MbrPlaneBuffer buffer;
  buffer.Reserve(static_cast<size_t>(kRows * n));
  for (int64_t i = 0; i < kRows * n; ++i) {
    buffer.AppendMbr(gen.NextRect(20, 60));
  }
  // A probe of side p overlaps an element of mean side 40 with about
  // ((40 + p) / kWorld)² odds.
  const double side = std::sqrt(pass) * kWorld - 40.0;
  std::vector<Rectangle> probes;
  for (int64_t r = 0; r < kRows; ++r) {
    probes.push_back(gen.NextRect(side, side));
  }
  const OverlapsOp op;
  const MbrPlanes planes = buffer.view();
  std::vector<uint64_t> out(static_cast<size_t>(MaskWords(n)));
  int64_t row = 0;
  for (auto _ : state) {
    op.ThetaUpperBatch(probes[static_cast<size_t>(row)], true,
                       planes.SubPlanes(row * n), n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    row = row + 1 == kRows ? 0 : row + 1;
  }
  state.counters["per_element"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  int64_t hits = 0;
  for (row = 0; row < kRows; ++row) {
    op.ThetaUpperBatch(probes[static_cast<size_t>(row)], true,
                       planes.SubPlanes(row * n), n, out.data());
    for (uint64_t word : out) hits += std::popcount(word);
  }
  state.counters["pass_rate"] =
      static_cast<double>(hits) / static_cast<double>(kRows * n);
}
BENCHMARK(BM_ThetaUpperBatch)->ArgsProduct({{8, 33, 102}, {3, 50}});

void BM_ZInterleave(benchmark::State& state) {
  uint32_t x = 12345;
  uint32_t y = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(InterleaveBits(x, y));
    x += 7;
    y += 13;
  }
}
BENCHMARK(BM_ZInterleave);

void BM_HilbertEncode(benchmark::State& state) {
  uint32_t x = 12345;
  uint32_t y = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(XYToHilbert(x & 0xFFFFFF, y & 0xFFFFFF,
                                         ZCell::kMaxLevel));
    x += 7;
    y += 13;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_ZDecomposeRect(benchmark::State& state) {
  ZGrid grid(Rectangle(0, 0, 1000, 1000));
  std::vector<Rectangle> rects = MakeRects(256, 5, 100);
  ZDecomposeOptions options;
  options.max_level = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecomposeRectangle(rects[i % rects.size()], grid, options));
    ++i;
  }
}
BENCHMARK(BM_ZDecomposeRect)->Arg(4)->Arg(8)->Arg(12);

}  // namespace
}  // namespace spatialjoin

BENCHMARK_MAIN();
