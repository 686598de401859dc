#include "exec/partitioned_join.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace spatialjoin {
namespace exec {

namespace {

// The grid: uniform tiles over `bounds`, with half-open tile ownership
// ([x_i, x_{i+1}) × [y_j, y_{j+1}); the last row/column is closed) so
// every point of the plane inside `bounds` belongs to exactly one tile —
// the property the reference-point deduplication rests on.
struct Grid {
  Rectangle bounds;
  int cols = 1;
  int rows = 1;
  double tile_w = 0.0;
  double tile_h = 0.0;

  int num_tiles() const { return cols * rows; }

  int ColOf(double x) const {
    if (tile_w <= 0.0) return 0;
    double offset = std::floor((x - bounds.min_x()) / tile_w);
    return static_cast<int>(
        std::clamp(offset, 0.0, static_cast<double>(cols - 1)));
  }
  int RowOf(double y) const {
    if (tile_h <= 0.0) return 0;
    double offset = std::floor((y - bounds.min_y()) / tile_h);
    return static_cast<int>(
        std::clamp(offset, 0.0, static_cast<double>(rows - 1)));
  }
  int TileOfPoint(double x, double y) const {
    return RowOf(y) * cols + ColOf(x);
  }
};

Grid MakeGrid(const Rectangle& bounds, int64_t total_items,
              const PartitionedJoinOptions& options) {
  Grid grid;
  grid.bounds = bounds;
  int auto_axis = static_cast<int>(std::ceil(
      std::sqrt(static_cast<double>(std::max<int64_t>(total_items, 1)) /
                64.0)));
  auto_axis = std::clamp(auto_axis, 1, 64);
  grid.cols = options.grid_cols > 0 ? options.grid_cols : auto_axis;
  grid.rows = options.grid_rows > 0 ? options.grid_rows : auto_axis;
  grid.tile_w = bounds.width() / static_cast<double>(grid.cols);
  grid.tile_h = bounds.height() / static_cast<double>(grid.rows);
  return grid;
}

// Appends the indices of every tile `rect` overlaps to `tiles[tile]`.
void AssignToTiles(const Grid& grid, const Rectangle& rect, int64_t item,
                   std::vector<std::vector<int64_t>>* tiles) {
  int col_lo = grid.ColOf(rect.min_x());
  int col_hi = grid.ColOf(rect.max_x());
  int row_lo = grid.RowOf(rect.min_y());
  int row_hi = grid.RowOf(rect.max_y());
  for (int row = row_lo; row <= row_hi; ++row) {
    SJ_BOUNDED_WORK;  // one rect's tile span (<= 64x64 grid)
    for (int col = col_lo; col <= col_hi; ++col) {
      SJ_BOUNDED_WORK;  // one rect's tile span (<= 64x64 grid)
      (*tiles)[static_cast<size_t>(row * grid.cols + col)].push_back(item);
    }
  }
}

// Sweep-order comparator: min-x of the sweep rectangle, tuple id as the
// deterministic tie-break.
struct SweepEntry {
  int64_t item = 0;       // index into r_items / s_items
  double min_x = 0.0;
};

bool SweepLess(const SweepEntry& a, const SweepEntry& b) {
  if (a.min_x != b.min_x) return a.min_x < b.min_x;
  return a.item < b.item;
}

}  // namespace

std::vector<JoinItem> CollectJoinItems(const Relation& rel, size_t column) {
  std::vector<JoinItem> items;
  items.reserve(static_cast<size_t>(rel.num_tuples()));
  rel.Scan([&](TupleId tid, const Tuple& tuple) {
    JoinItem item;
    item.tid = tid;
    item.geometry = tuple.value(column);
    item.mbr = item.geometry.Mbr();
    items.push_back(std::move(item));
  });
  return items;
}

bool PartitionedJoinSupports(const ThetaOperator& op) {
  // Representative probe: the window derivation of every ThetaOperator in
  // this library is shape-independent (a fixed transform of b's MBR), so
  // one finite answer means all answers are finite.
  return op.ProbeWindow(Rectangle(0, 0, 1, 1), Rectangle(0, 0, 2, 2))
      .has_value();
}

JoinResult PartitionedJoin(const std::vector<JoinItem>& r_items,
                           const std::vector<JoinItem>& s_items,
                           const ThetaOperator& op, ThreadPool* pool,
                           const PartitionedJoinOptions& options,
                           const CancelToken* cancel) {
  SJ_CHECK(pool != nullptr);
  JoinResult result;
  if (r_items.empty() || s_items.empty()) return result;

  // Every input geometry was materialized exactly once by the caller
  // (CollectJoinItems); charge those accesses here so the counters stay
  // comparable with the tree strategies.
  result.nodes_accessed =
      static_cast<int64_t>(r_items.size() + s_items.size());

  // Data bounds: all MBRs, used both as the window-clipping world and
  // (extended by the windows) as the grid extent.
  Rectangle world = Rectangle::Empty();
  for (const JoinItem& r : r_items) {
    SJ_BOUNDED_WORK;  // one Extend per input; cheap next to the sweep
    world.Extend(r.mbr);
  }
  for (const JoinItem& s : s_items) {
    SJ_BOUNDED_WORK;  // one Extend per input; cheap next to the sweep
    world.Extend(s.mbr);
  }

  // Probe windows W(s): Θ(r, s) ⇒ mbr(r) overlaps W(s), so sweeping
  // mbr(r) against W(s) is a conservative candidate test for any Table 1
  // operator, not just overlap.
  std::vector<Rectangle> windows(s_items.size());
  Rectangle grid_bounds = world;
  for (size_t i = 0; i < s_items.size(); ++i) {
    if (cancel != nullptr && cancel->ShouldStop()) return result;
    auto window = op.ProbeWindow(s_items[i].mbr, world);
    SJ_CHECK_MSG(window.has_value(),
                 "PartitionedJoin requires an operator with a finite probe "
                 "window (see PartitionedJoinSupports)");
    windows[i] = *window;
    grid_bounds.Extend(windows[i]);
  }

  Grid grid = MakeGrid(
      grid_bounds,
      static_cast<int64_t>(r_items.size() + s_items.size()), options);

  // Partition: replicate R by MBR and S by window into every overlapping
  // tile. Single-threaded — O(items · replication), trivial next to the
  // sweeps.
  std::vector<std::vector<int64_t>> r_tiles(
      static_cast<size_t>(grid.num_tiles()));
  std::vector<std::vector<int64_t>> s_tiles(
      static_cast<size_t>(grid.num_tiles()));
  {
    SJ_SPAN_CAT("pbsm.partition", "exec");
    // Phase boundary heartbeat: partitioning is the longest single-
    // threaded stretch of PBSM.
    ActivityScope::BeatThisThread();
    for (size_t i = 0; i < r_items.size(); ++i) {
      SJ_BOUNDED_WORK;  // replication pass; O(items x tile span)
      AssignToTiles(grid, r_items[i].mbr, static_cast<int64_t>(i), &r_tiles);
    }
    for (size_t i = 0; i < s_items.size(); ++i) {
      SJ_BOUNDED_WORK;  // replication pass; O(items x tile span)
      AssignToTiles(grid, windows[i], static_cast<int64_t>(i), &s_tiles);
    }
  }
  int64_t replicated = 0;
  for (const auto& t : r_tiles) {
    SJ_BOUNDED_WORK;  // one size() read per tile (<= 64x64 grid)
    replicated += static_cast<int64_t>(t.size());
  }
  for (const auto& t : s_tiles) {
    SJ_BOUNDED_WORK;  // one size() read per tile (<= 64x64 grid)
    replicated += static_cast<int64_t>(t.size());
  }
  TraceCounter("pbsm.replicated_items", replicated);

  // Per-tile parallel plane sweep into per-tile output slots, a cache line
  // apiece: neighbouring tiles run on different threads at once.
  struct alignas(64) TileOutput {
    std::vector<std::pair<TupleId, TupleId>> matches;
    int64_t candidates = 0;
    int64_t theta_upper_tests = 0;
    int64_t theta_tests = 0;
  };
  std::vector<TileOutput> outputs(static_cast<size_t>(grid.num_tiles()));

  pool->ParallelFor(grid.num_tiles(), [&](int64_t tile) {
    const auto& r_list = r_tiles[static_cast<size_t>(tile)];
    const auto& s_list = s_tiles[static_cast<size_t>(tile)];
    if (r_list.empty() || s_list.empty()) return;
    SJ_SPAN_CAT("pbsm.tile_sweep", "exec");
    TileOutput& out = outputs[static_cast<size_t>(tile)];

    std::vector<SweepEntry> r_sweep;
    r_sweep.reserve(r_list.size());
    for (int64_t i : r_list) {
      SJ_BOUNDED_WORK;  // one tile's item list; the sweep below polls
      r_sweep.push_back({i, r_items[static_cast<size_t>(i)].mbr.min_x()});
    }
    std::vector<SweepEntry> s_sweep;
    s_sweep.reserve(s_list.size());
    for (int64_t i : s_list) {
      SJ_BOUNDED_WORK;  // one tile's item list; the sweep below polls
      s_sweep.push_back({i, windows[static_cast<size_t>(i)].min_x()});
    }
    std::sort(r_sweep.begin(), r_sweep.end(), SweepLess);
    std::sort(s_sweep.begin(), s_sweep.end(), SweepLess);

    // Candidate check for one x-overlapping pair; the reference-point
    // test makes exactly one tile emit each replicated pair.
    auto check_pair = [&](int64_t ri, int64_t si) {
      const JoinItem& r = r_items[static_cast<size_t>(ri)];
      const JoinItem& s = s_items[static_cast<size_t>(si)];
      const Rectangle& window = windows[static_cast<size_t>(si)];
      Rectangle common = r.mbr.Intersection(window);
      if (common.is_empty()) return;
      ++out.candidates;
      if (grid.TileOfPoint(common.min_x(), common.min_y()) != tile) return;
      ++out.theta_upper_tests;
      if (!op.ThetaUpper(r.mbr, s.mbr)) return;
      ++out.theta_tests;
      if (op.Theta(r.geometry, s.geometry)) {
        out.matches.emplace_back(r.tid, s.tid);
      }
    };

    // Forward plane sweep over the two sorted lists (Brinkhoff et al.):
    // repeatedly take the list head with the smaller min-x and scan the
    // other list while x-intervals still overlap.
    size_t i = 0;
    size_t j = 0;
    while (i < r_sweep.size() && j < s_sweep.size()) {
      if (cancel != nullptr && cancel->ShouldStop()) return;
      if (SweepLess(r_sweep[i], s_sweep[j])) {
        const JoinItem& r = r_items[static_cast<size_t>(r_sweep[i].item)];
        for (size_t j2 = j; j2 < s_sweep.size() &&
                            s_sweep[j2].min_x <= r.mbr.max_x();
             ++j2) {
          SJ_BOUNDED_WORK;  // one head's x-overlap run; the sweep polls
          check_pair(r_sweep[i].item, s_sweep[j2].item);
        }
        ++i;
      } else {
        const Rectangle& window =
            windows[static_cast<size_t>(s_sweep[j].item)];
        for (size_t i2 = i; i2 < r_sweep.size() &&
                            r_sweep[i2].min_x <= window.max_x();
             ++i2) {
          SJ_BOUNDED_WORK;  // one head's x-overlap run; the sweep polls
          check_pair(r_sweep[i2].item, s_sweep[j].item);
        }
        ++j;
      }
    }
  });

  int64_t candidates = 0;
  for (TileOutput& out : outputs) {
    SJ_BOUNDED_WORK;  // one merge per tile (<= 64x64 grid)
    result.matches.insert(result.matches.end(), out.matches.begin(),
                          out.matches.end());
    result.theta_upper_tests += out.theta_upper_tests;
    result.theta_tests += out.theta_tests;
    candidates += out.candidates;
  }
  result.qual_pairs_examined = candidates;

  // Registered on the first run, resolved once.
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const runs =
      registry.GetCounter("exec.partitioned_join.runs");
  static Counter* const tiles =
      registry.GetCounter("exec.partitioned_join.tiles");
  static Counter* const replicated_items =
      registry.GetCounter("exec.partitioned_join.replicated_items");
  static Counter* const candidate_pairs =
      registry.GetCounter("exec.partitioned_join.candidates");
  runs->Increment();
  tiles->Increment(grid.num_tiles());
  replicated_items->Increment(replicated);
  candidate_pairs->Increment(candidates);
  return result;
}

}  // namespace exec
}  // namespace spatialjoin
