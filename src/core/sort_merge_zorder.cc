#include "core/sort_merge_zorder.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/check.h"

namespace spatialjoin {

namespace {

struct SweepEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
  TupleId tid = kInvalidTupleId;
  bool from_r = true;
};

}  // namespace

JoinResult SortMergeZOrderJoin(const Relation& r, size_t col_r,
                               const Relation& s, size_t col_s,
                               const ThetaOperator& op, const ZGrid& grid,
                               const ZDecomposeOptions& options,
                               ZOrderJoinStats* stats,
                               const exec::CancelToken* cancel) {
  JoinResult result;
  ZOrderJoinStats local_stats;

  // Phase 1: decompose every object into z-cells ("sort keys"). MBRs are
  // padded by one finest grid cell so that closed-rectangle contacts that
  // fall exactly on a cell boundary still produce a shared cell (the
  // quadtree decomposition treats cells as half-open); the padding only
  // adds candidates, which the θ verification filters out.
  double epsilon =
      std::max(grid.world().width(), grid.world().height()) /
      static_cast<double>(ZGrid::CellsPerAxis());
  std::vector<SweepEntry> entries;
  auto decompose_relation = [&](const Relation& rel, size_t col,
                                bool from_r, int64_t* cell_count) {
    rel.Scan([&](TupleId tid, const Tuple& tuple) {
      ++result.nodes_accessed;
      Rectangle mbr = tuple.value(col).Mbr().Expanded(epsilon);
      for (const ZCell& cell : DecomposeRectangle(mbr, grid, options)) {
        SJ_BOUNDED_WORK;  // one object's cells, capped by options.max_cells
        entries.push_back(SweepEntry{cell.interval_lo(), cell.interval_hi(),
                                     tid, from_r});
        ++*cell_count;
      }
    });
  };
  decompose_relation(r, col_r, true, &local_stats.z_cells_r);
  decompose_relation(s, col_s, false, &local_stats.z_cells_s);

  // Phase 2: sort. Containing intervals order before contained ones so
  // ancestors are on the stack when descendants arrive.
  std::sort(entries.begin(), entries.end(),
            [](const SweepEntry& a, const SweepEntry& b) {
              if (a.lo != b.lo) return a.lo < b.lo;
              return a.hi > b.hi;
            });

  // Phase 3: merge. Quadtree z-intervals are pairwise nested or disjoint,
  // so a stack of "open" intervals holds exactly the ancestors of the
  // current position; every opposite-side member shares a cell with the
  // arriving entry.
  std::vector<SweepEntry> stack;
  std::set<std::pair<TupleId, TupleId>> candidates;
  for (const SweepEntry& e : entries) {
    if (cancel != nullptr && cancel->ShouldStop()) break;
    while (!stack.empty() && stack.back().hi <= e.lo) {
      SJ_BOUNDED_WORK;  // pops the open-interval stack; the sweep polls
      stack.pop_back();
    }
    for (const SweepEntry& open : stack) {
      SJ_BOUNDED_WORK;  // open ancestors of one entry; the sweep polls
      if (open.from_r == e.from_r) continue;
      ++local_stats.candidate_pairs;
      std::pair<TupleId, TupleId> pair =
          e.from_r ? std::make_pair(e.tid, open.tid)
                   : std::make_pair(open.tid, e.tid);
      if (!candidates.insert(pair).second) {
        ++local_stats.duplicates_suppressed;
      }
    }
    stack.push_back(e);
  }

  // Phase 4: verify candidates with the exact θ test.
  for (const auto& [r_tid, s_tid] : candidates) {
    if (cancel != nullptr && cancel->ShouldStop()) break;
    Value r_value = r.ReadValue(r_tid, col_r);
    Value s_value = s.ReadValue(s_tid, col_s);
    result.nodes_accessed += 2;
    ++result.theta_tests;
    if (op.Theta(r_value, s_value)) {
      result.matches.emplace_back(r_tid, s_tid);
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace spatialjoin
