// A4 — microbenchmarks for the geometry and z-order substrates (the
// per-C_θ building blocks of every strategy), via google-benchmark.
#include <benchmark/benchmark.h>

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
