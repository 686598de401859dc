// The flat FrozenTree kernel: Algorithm JOIN's JOIN2–JOIN4 under one
// level driver that runs with or without a thread pool, and Algorithm
// SELECT on the calling thread, both over FrozenTree's struct-of-arrays
// layout (DESIGN.md §7). Every Θ goes through
// ThetaOperator::ThetaUpperBatch over MBR planes, and only the set bits
// of its mask are visited, in ascending order. SELECT's θ is the
// scalar Theta on geometry references; JOIN's also passes both nodes'
// ring approximations (FrozenTree::ApproxAt), with which `overlaps`
// settles many polygon pairs before the exact ring test. The matches and
// their order, the QualPairs, each trace level's worklist, pruned and
// descended counts and the stop points are those of the generic kernel
// (core/join_detail.h, core/select.cc). SELECT's counters are too. JOIN
// runs θ only on pairs of application objects, the only pairs that can
// match, and stops a JOIN4 pass led by any other node at the anchor's
// children, so its Θ, θ and node-access counts are the work it did.

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "exec/parallel_join.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace spatialjoin {
namespace exec {

namespace {

// Work per pool task, in Θ tests: a block row weighs its JOIN2 tests plus
// the children its JOIN4 passes scan (CutPairRows). Chunks merge in
// order, so the cut never changes the output.
constexpr int64_t kChunkWork = 4096;

// Reusable rows for one thread of the kernel, sized once to the widest
// node: JOIN2's Θ mask for one block row and the block's gathered S-side
// MBR planes, plus the selection passes' Θ masks and frontiers.
struct KernelScratch {
  explicit KernelScratch(int64_t row_size)
      : row(row_size),
        row_hits(static_cast<size_t>(MaskWords(row_size))),
        pass_hits(static_cast<size_t>(MaskWords(row_size))),
        gathered(static_cast<size_t>(4 * row_size)) {}

  // Copies the MBRs of nodes ids[0, n) into the gathered planes.
  SJ_HOT MbrPlanes GatherMbrs(const MbrPlanes& from, const NodeId* ids,
                              int64_t n) {
    double* min_x = gathered.data();
    double* min_y = min_x + row;
    double* max_x = min_y + row;
    double* max_y = max_x + row;
    for (int64_t k = 0; k < n; ++k) {
      SJ_BOUNDED_WORK;  // one block's S side (node fanout)
      min_x[k] = from.min_x[ids[k]];
      min_y[k] = from.min_y[ids[k]];
      max_x[k] = from.max_x[ids[k]];
      max_y[k] = from.max_y[ids[k]];
    }
    return {min_x, min_y, max_x, max_y};
  }

  int64_t row;
  std::vector<uint64_t> row_hits;
  std::vector<uint64_t> pass_hits;
  std::vector<double> gathered;
  std::vector<NodeRange> frontier;
  std::vector<NodeRange> next_frontier;
};

// One QualPairs cross-product block: the a_n R nodes and b_n S nodes at
// ids[begin, begin + b_n + a_n) of its level, S side first (the order the
// two JOIN4 passes produce them in).
struct PairBlock {
  int64_t begin = 0;
  int64_t b_n = 0;
  int64_t a_n = 0;
};

// One QualPairs level as blocks; `pairs` is |QualPairs[j]|.
struct PairLevel {
  std::vector<NodeId> ids;
  std::vector<PairBlock> blocks;
  int64_t pairs = 0;

  void Clear() {
    ids.clear();
    blocks.clear();
    pairs = 0;
  }
};

// One level's Θ outcomes (entries cut vs expanded), for the trace.
struct LevelTally {
  int64_t pruned = 0;
  int64_t descended = 0;
};

// ---------------------------------------------------------------------------
// JOIN
// ---------------------------------------------------------------------------

// One JOIN4 selection pass: the object of `selector` (a node of
// `sel_tree`) against the strict descendants of `anchor` in `tree`,
// breadth-first, one Θ batch per run of siblings. Appends the
// Θ-qualifying direct children of `anchor` to *qualifying and emits
// matches R-before-S per `selector_is_r`, in join_detail::SelectPass's
// order. Only a pair of application objects can match, so θ runs on
// those alone, and a selector that is no application object stops at
// the direct children, which only seed the next QualPairs block.
SJ_HOT void ScanBelow(const FrozenTree& sel_tree, NodeId selector,
                      const FrozenTree& tree, NodeId anchor,
                      const ThetaOperator& op, bool selector_is_r,
                      KernelScratch* scratch, JoinResult* out,
                      std::vector<NodeId>* qualifying) {
  const NodeRange direct = tree.ChildSpan(anchor);
  if (direct.size() == 0) return;
  const Rectangle probe = sel_tree.MbrAt(selector);
  const Value& selector_geom = sel_tree.GeometryRef(selector);
  const bool selector_app = sel_tree.IsApplicationAt(selector);
  const RingApprox* selector_approx =
      selector_app ? sel_tree.ApproxAt(selector) : nullptr;
  const TupleId selector_tuple = sel_tree.TupleAt(selector);
  const MbrPlanes planes = tree.planes();
  uint64_t* hits = scratch->pass_hits.data();
  std::vector<NodeRange>& frontier = scratch->frontier;
  std::vector<NodeRange>& next = scratch->next_frontier;
  frontier.clear();
  frontier.push_back(direct);
  for (bool is_direct = true; !frontier.empty(); is_direct = false) {
    SJ_BOUNDED_WORK;  // one anchor's subtree depth; the JOIN level loop polls
    next.clear();
    for (const NodeRange& range : frontier) {
      SJ_BOUNDED_WORK;  // one subtree level; the JOIN level loop polls
      op.ThetaUpperBatch(probe, selector_is_r, planes.SubPlanes(range.begin),
                         range.size(), hits);
      out->theta_upper_tests += range.size();
      for (int64_t w = 0; w < MaskWords(range.size()); ++w) {
        SJ_BOUNDED_WORK;  // one run of siblings' words (node fanout / 64)
        for (uint64_t bits = hits[w]; bits != 0; bits &= bits - 1) {
          SJ_BOUNDED_WORK;  // one word's set bits
          const NodeId node = range.begin + w * 64 + std::countr_zero(bits);
          if (is_direct) qualifying->push_back(node);
          ++out->nodes_accessed;
          if (!selector_app) continue;  // no θ, and no descent below `direct`
          if (tree.IsApplicationAt(node)) {
            ++out->theta_tests;
            const Value& geometry = tree.GeometryRef(node);
            const RingApprox* approx = tree.ApproxAt(node);
            if (selector_is_r ? op.Theta(selector_geom, selector_approx,
                                         geometry, approx)
                              : op.Theta(geometry, approx, selector_geom,
                                         selector_approx)) {
              const TupleId tuple = tree.TupleAt(node);
              if (selector_is_r) {
                out->matches.emplace_back(selector_tuple, tuple);
              } else {
                out->matches.emplace_back(tuple, selector_tuple);
              }
            }
          }
          const NodeRange kids = tree.ChildSpan(node);
          if (kids.size() > 0) next.push_back(kids);
        }
      }
    }
    frontier.swap(next);
  }
}

// JOIN3 and JOIN4 for a pair (a, b) that passed JOIN2's Θ: the θ test
// when both are application objects, both selection passes, and the
// block of cross-qualifying children for the next level —
// join_detail::ProcessQualPair after its Θ test.
SJ_HOT void JoinPassedPair(const FrozenTree& r_tree,
                           const FrozenTree& s_tree, const ThetaOperator& op,
                           NodeId a, NodeId b, KernelScratch* scratch,
                           JoinResult* out, PairLevel* next) {
  out->nodes_accessed += 2;
  if (r_tree.IsApplicationAt(a) && s_tree.IsApplicationAt(b)) {
    ++out->theta_tests;
    if (op.Theta(r_tree.GeometryRef(a), r_tree.ApproxAt(a),
                 s_tree.GeometryRef(b), s_tree.ApproxAt(b))) {
      out->matches.emplace_back(r_tree.TupleAt(a), s_tree.TupleAt(b));
    }
  }
  std::vector<NodeId>& ids = next->ids;
  const int64_t begin = static_cast<int64_t>(ids.size());
  ScanBelow(r_tree, a, s_tree, b, op, /*selector_is_r=*/true, scratch, out,
            &ids);
  const int64_t b_n = static_cast<int64_t>(ids.size()) - begin;
  ScanBelow(s_tree, b, r_tree, a, op, /*selector_is_r=*/false, scratch, out,
            &ids);
  const int64_t a_n = static_cast<int64_t>(ids.size()) - begin - b_n;
  if (a_n > 0 && b_n > 0) {
    next->blocks.push_back({begin, b_n, a_n});
    next->pairs += a_n * b_n;
  } else {
    // An empty side makes an empty cross product; drop the other side.
    ids.erase(ids.begin() + begin, ids.end());
  }
}

// A position in a level's a-major order: row `row` (one R node against
// all of the block's S nodes) of block `block`. {blocks.size(), 0} is the
// end of the level.
struct RowPos {
  size_t block = 0;
  int64_t row = 0;
};

// JOIN2–JOIN4 for the rows [from, to) of `level`: one batched Θ per block
// row (an R node against the block's S nodes), then JoinPassedPair for the
// row's qualifying pairs, the set bits of its mask.
SJ_HOT void RunPairRows(const FrozenTree& r_tree, const FrozenTree& s_tree,
                        const ThetaOperator& op, const PairLevel& level,
                        RowPos from, RowPos to, KernelScratch* scratch,
                        JoinResult* out, PairLevel* next, LevelTally* tally) {
  const MbrPlanes s_planes = s_tree.planes();
  const size_t end_block = to.row > 0 ? to.block + 1 : to.block;
  for (size_t k = from.block; k < end_block; ++k) {
    SJ_BOUNDED_WORK;  // one level's blocks; the JOIN level loop polls
    const PairBlock& block = level.blocks[k];
    const NodeId* b_ids = level.ids.data() + block.begin;
    const NodeId* a_ids = b_ids + block.b_n;
    const MbrPlanes b_planes = scratch->GatherMbrs(s_planes, b_ids, block.b_n);
    uint64_t* hits = scratch->row_hits.data();
    const int64_t last_row = k == to.block ? to.row : block.a_n;
    for (int64_t i = k == from.block ? from.row : 0; i < last_row; ++i) {
      SJ_BOUNDED_WORK;  // one block's R side (node fanout)
      const NodeId a = a_ids[i];
      // Θ sees its operands R before S (it can be asymmetric, Table 1).
      op.ThetaUpperBatch(r_tree.MbrAt(a), /*probe_is_left=*/true, b_planes,
                         block.b_n, hits);
      out->qual_pairs_examined += block.b_n;
      out->theta_upper_tests += block.b_n;
      int64_t descended = 0;
      for (int64_t w = 0; w < MaskWords(block.b_n); ++w) {
        SJ_BOUNDED_WORK;  // one block row's words (node fanout / 64)
        for (uint64_t bits = hits[w]; bits != 0; bits &= bits - 1) {
          SJ_BOUNDED_WORK;  // one word's set bits
          ++descended;
          JoinPassedPair(r_tree, s_tree, op, a,
                         b_ids[w * 64 + std::countr_zero(bits)], scratch, out,
                         next);
        }
      }
      tally->descended += descended;
      tally->pruned += block.b_n - descended;
    }
  }
}

// Cuts `level` into row runs of at least kChunkWork Θ work each (the last
// may be lighter): chunk c is rows [cuts[c], cuts[c + 1]). A row weighs
// its JOIN2 tests plus, should its pairs pass, the children both JOIN4
// passes scan. Cutting inside blocks spreads levels made of a few large
// blocks, as the ones just below the root are.
std::vector<RowPos> CutPairRows(const FrozenTree& r_tree,
                                const FrozenTree& s_tree,
                                const PairLevel& level) {
  std::vector<RowPos> cuts{{0, 0}};
  int64_t run = 0;
  for (size_t k = 0; k < level.blocks.size(); ++k) {
    SJ_BOUNDED_WORK;  // one level's blocks; the JOIN level loop polls
    const PairBlock& block = level.blocks[k];
    const NodeId* b_ids = level.ids.data() + block.begin;
    const NodeId* a_ids = b_ids + block.b_n;
    int64_t b_kids = 0;
    for (int64_t j = 0; j < block.b_n; ++j) {
      SJ_BOUNDED_WORK;  // one block's S side (node fanout)
      b_kids += s_tree.ChildSpan(b_ids[j]).size();
    }
    for (int64_t i = 0; i < block.a_n; ++i) {
      SJ_BOUNDED_WORK;  // one block's R side (node fanout)
      run += block.b_n * (1 + r_tree.ChildSpan(a_ids[i]).size()) + b_kids;
      if (run >= kChunkWork) {
        cuts.push_back(i + 1 < block.a_n ? RowPos{k, i + 1}
                                         : RowPos{k + 1, 0});
        run = 0;
      }
    }
  }
  if (cuts.back().block != level.blocks.size()) {
    cuts.push_back({level.blocks.size(), 0});
  }
  return cuts;
}

// A chunk's share of one join level. Neighbouring chunks run on
// different threads at once, so each gets its own cache lines.
struct alignas(64) JoinChunk {
  JoinResult result;
  PairLevel next;
  LevelTally tally;
};

// Folds `chunk` into the level's totals, rebasing its blocks onto the
// merged id array and keeping chunk order.
void MergeJoinChunk(const JoinChunk& chunk, JoinResult* total,
                    PairLevel* next, LevelTally* tally) {
  const JoinResult& part = chunk.result;
  total->matches.insert(total->matches.end(), part.matches.begin(),
                        part.matches.end());
  total->theta_upper_tests += part.theta_upper_tests;
  total->theta_tests += part.theta_tests;
  total->nodes_accessed += part.nodes_accessed;
  total->qual_pairs_examined += part.qual_pairs_examined;
  const int64_t shift = static_cast<int64_t>(next->ids.size());
  next->ids.insert(next->ids.end(), chunk.next.ids.begin(),
                   chunk.next.ids.end());
  for (PairBlock block : chunk.next.blocks) {
    SJ_BOUNDED_WORK;  // one chunk's blocks
    block.begin += shift;
    next->blocks.push_back(block);
  }
  next->pairs += chunk.next.pairs;
  tally->pruned += chunk.tally.pruned;
  tally->descended += chunk.tally.descended;
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// SELECT2 for the sibling run [begin, begin + n): Θ for all of them in one
// batch, then θ and the match bookkeeping for the qualifying ones (the
// set bits), whose child ranges go to *next — SpatialSelect's VisitNode,
// run-at-a-time.
SJ_HOT void SelectRun(const FrozenTree& tree, const Value& selector,
                      const Rectangle& probe, const ThetaOperator& op,
                      NodeId begin, int64_t n, uint64_t* hits,
                      SelectResult* out, std::vector<NodeRange>* next) {
  op.ThetaUpperBatch(probe, /*probe_is_left=*/true,
                     tree.planes().SubPlanes(begin), n, hits);
  out->theta_upper_tests += n;
  for (int64_t w = 0; w < MaskWords(n); ++w) {
    SJ_BOUNDED_WORK;  // one run of siblings' words (node fanout / 64)
    for (uint64_t bits = hits[w]; bits != 0; bits &= bits - 1) {
      SJ_BOUNDED_WORK;  // one word's set bits
      const NodeId node = begin + w * 64 + std::countr_zero(bits);
      ++out->nodes_accessed;
      ++out->theta_tests;
      if (op.Theta(selector, tree.GeometryRef(node))) {
        out->matching_nodes.push_back(node);
        if (tree.IsApplicationAt(node)) {
          out->matching_tuples.push_back(tree.TupleAt(node));
        }
      }
      const NodeRange kids = tree.ChildSpan(node);
      if (kids.size() > 0) next->push_back(kids);
    }
  }
}

}  // namespace

JoinResult ParallelTreeJoin(const FrozenTree& r_tree, const FrozenTree& s_tree,
                            const ThetaOperator& op, ThreadPool* pool,
                            const CancelToken* cancel, QueryTrace* trace) {
  const bool pooled = pool != nullptr;
  JoinResult result;
  const int max_level = std::min(r_tree.height(), s_tree.height());
  const int64_t row =
      std::max<int64_t>({1, r_tree.max_fanout(), s_tree.max_fanout()});
  KernelScratch scratch(row);

  PairLevel current;
  PairLevel next;
  current.ids = {s_tree.root(), r_tree.root()};
  current.blocks.push_back({0, 1, 1});
  current.pairs = 1;

  int64_t levels_run = 0;
  for (int j = 0; j <= max_level && current.pairs > 0; ++j) {
    // Cooperative stop point: between levels, never mid-pair, so a
    // stopped join is a clean prefix of the level-synchronized run and
    // no chunk is in flight.
    if (cancel != nullptr && cancel->ShouldStop()) break;
    ++levels_run;
    ScopedSpan span(pooled ? "parallel_join.level" : "join.level",
                    pooled ? "exec" : "core");
    // Watchdog heartbeat (DESIGN.md §10), once per level; ParallelFor
    // beats once per claimed chunk.
    ActivityScope::BeatThisThread();
    TraceCounter("join.qual_pairs", current.pairs);
    // The JOIN4 passes descend into deeper subtrees, but their cost is
    // charged to the QualPairs level that triggered them (§4.4).
    LevelTrace level_trace(trace, result.theta_upper_tests,
                           result.theta_tests);
    LevelTally tally;
    next.Clear();

    std::vector<RowPos> cuts;
    if (pooled && pool->num_workers() > 1) {
      cuts = CutPairRows(r_tree, s_tree, current);
    }
    if (cuts.size() > 2) {
      const int64_t num_chunks = static_cast<int64_t>(cuts.size()) - 1;
      std::vector<JoinChunk> chunks(static_cast<size_t>(num_chunks));
      pool->ParallelFor(num_chunks, [&](int64_t c) {
        // On the worker's own track, nested under its pool.task span.
        SJ_SPAN_CAT("parallel_join.chunk", "exec");
        JoinChunk& chunk = chunks[static_cast<size_t>(c)];
        KernelScratch chunk_scratch(row);
        RunPairRows(r_tree, s_tree, op, current, cuts[static_cast<size_t>(c)],
                    cuts[static_cast<size_t>(c) + 1], &chunk_scratch,
                    &chunk.result, &chunk.next, &chunk.tally);
      });
      // Level barrier: merge in chunk order, reproducing the sequential
      // match order and next level exactly.
      for (const JoinChunk& chunk : chunks) {
        SJ_BOUNDED_WORK;  // one level's chunk merge; the level loop polls
        MergeJoinChunk(chunk, &result, &next, &tally);
      }
    } else {
      RunPairRows(r_tree, s_tree, op, current, {0, 0},
                  {current.blocks.size(), 0}, &scratch, &result, &next,
                  &tally);
    }

    level_trace.RecordLevel(j, current.pairs, result.theta_upper_tests,
                            result.theta_tests, tally.pruned,
                            tally.descended);
    std::swap(current, next);
  }

  if (pooled) {
    // Registered on the first pooled run, resolved once.
    static Counter* const runs =
        MetricsRegistry::Global().GetCounter("exec.parallel_join.runs");
    static Counter* const levels =
        MetricsRegistry::Global().GetCounter("exec.parallel_join.levels");
    runs->Increment();
    levels->Increment(levels_run);
  }
  return result;
}

SelectResult FlatSelect(const Value& selector, const FrozenTree& tree,
                        const ThetaOperator& op, const CancelToken* cancel,
                        QueryTrace* trace) {
  SelectResult result;
  // Already cancelled / past deadline at entry: do no work at all.
  if (cancel != nullptr && cancel->ShouldStop()) return result;
  const Rectangle probe = selector.Mbr();
  const int64_t row = std::max<int64_t>(1, tree.max_fanout());
  std::vector<uint64_t> hits(static_cast<size_t>(MaskWords(row)));

  std::vector<NodeRange> frontier{{tree.root(), tree.root() + 1}};
  std::vector<NodeRange> next;
  // SpatialSelectFrom's stride: the visit numbered 256·k beats the
  // watchdog and polls `cancel` before it runs, so runs are cut there.
  uint32_t visits = 0;
  bool stopped = false;
  while (!frontier.empty() && !stopped) {
    ScopedSpan span("select.level", "core");
    LevelTrace level_trace(trace, result.theta_upper_tests,
                           result.theta_tests);
    const int64_t visited_before = result.theta_upper_tests;
    const int64_t qualified_before = result.theta_tests;
    next.clear();
    for (const NodeRange& range : frontier) {
      NodeId at = range.begin;
      while (at < range.end) {
        const uint32_t residue = (visits + 1) & 0xFF;
        if (residue == 0) {
          ActivityScope::BeatThisThread();
          if (cancel != nullptr && cancel->ShouldStop()) {
            stopped = true;
            break;
          }
        }
        const int64_t len = std::min<int64_t>(range.end - at, 256 - residue);
        visits += static_cast<uint32_t>(len);
        SelectRun(tree, selector, probe, op, at, len, hits.data(), &result,
                  &next);
        at += len;
      }
      if (stopped) break;
    }

    // Like the generic per-visit accounting, a level stopped before its
    // first visit leaves no trace record.
    const int64_t visited = result.theta_upper_tests - visited_before;
    const int64_t qualified = result.theta_tests - qualified_before;
    if (visited > 0) {
      level_trace.RecordLevel(tree.HeightAt(frontier.front().begin), visited,
                              result.theta_upper_tests, result.theta_tests,
                              visited - qualified, qualified);
    }
    frontier.swap(next);
  }
  return result;
}

}  // namespace exec
}  // namespace spatialjoin
