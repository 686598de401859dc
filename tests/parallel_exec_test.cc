#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/join.h"
#include "core/memory_gentree.h"
#include "core/select.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "exec/frozen_tree.h"
#include "exec/parallel_join.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "geometry/ring_approx.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

using MatchSet = std::set<std::pair<TupleId, TupleId>>;

MatchSet AsSet(const JoinResult& result) {
  return MatchSet(result.matches.begin(), result.matches.end());
}

// The Table 1 operator family, exercised against every parallel strategy.
struct NamedOp {
  const char* label;
  std::unique_ptr<ThetaOperator> op;
};

std::vector<NamedOp> Table1Operators() {
  std::vector<NamedOp> ops;
  ops.push_back({"within_distance", std::make_unique<WithinDistanceOp>(12.0)});
  ops.push_back({"overlaps", std::make_unique<OverlapsOp>()});
  ops.push_back({"includes", std::make_unique<IncludesOp>()});
  ops.push_back({"contained_in", std::make_unique<ContainedInOp>()});
  ops.push_back({"northwest_of", std::make_unique<NorthwestOfOp>()});
  ops.push_back({"adjacent", std::make_unique<AdjacentOp>()});
  ops.push_back(
      {"reachable_within", std::make_unique<ReachableWithinOp>(5.0, 2.0)});
  return ops;
}

// One side of a disk-backed join input: a relation, its R-tree, the
// generalization-tree adapter over both, and every object's MBR.
struct RTreeSide {
  std::unique_ptr<Relation> relation;
  std::unique_ptr<RTree> rtree;
  std::unique_ptr<RTreeGenTree> adapter;
  std::vector<Rectangle> mbrs;
};

// The star polygons RectGenerator::NextPolygon draws: `vertices`
// vertices at radii in [min_radius, max_radius] about a random centre.
struct StarShape {
  double min_radius = 2;
  double max_radius = 12;
  int vertices = 6;
};

// `n` objects in `world`, indexed by an R-tree of node capacity
// `max_entries`: star polygons of `shape` (by default convex-ish 6-gons)
// or, with `polygons` false, rectangles.
RTreeSide IndexedSide(BufferPool* pool, const Rectangle& world,
                      uint64_t seed, int64_t n, bool polygons,
                      int max_entries, const StarShape& shape = {}) {
  RTreeSide side;
  Schema schema({{"id", ValueType::kInt64},
                 {"geom", polygons ? ValueType::kPolygon
                                   : ValueType::kRectangle}});
  side.relation = std::make_unique<Relation>("p", schema, pool);
  side.rtree =
      std::make_unique<RTree>(pool, RTreeSplit::kQuadratic, max_entries);
  RectGenerator gen(world, seed);
  for (int64_t i = 0; i < n; ++i) {
    Value object = polygons ? Value(gen.NextPolygon(shape.min_radius,
                                                    shape.max_radius,
                                                    shape.vertices))
                            : Value(gen.NextRect(2, 30));
    side.mbrs.push_back(object.Mbr());
    side.rtree->Insert(object.Mbr(),
                       side.relation->Insert(Tuple({Value(i), object})));
  }
  side.adapter =
      std::make_unique<RTreeGenTree>(side.rtree.get(), side.relation.get(), 1);
  return side;
}

// An application hierarchy (paper Fig. 3) with what R-trees never have:
// interior nodes that are application objects (every third node is
// technical instead), leaves at unequal heights (3 and 4), and mixed
// rectangle and polygon geometry. Each child is a random sub-cell of its
// parent, five per node down to height 3 and zero to five below; the
// cells overlap enough that two such trees have over 4096 QualPairs at
// height 3 — more than one pool chunk (exec/flat_kernel.cc) — so the
// pooled join merges chunked blocks that the next level then expands.
std::unique_ptr<MemoryGenTree> RandomHierarchy(const Rectangle& world,
                                               uint64_t seed) {
  auto tree = std::make_unique<MemoryGenTree>();
  Rng rng(seed);
  TupleId next_tuple = static_cast<TupleId>(seed) * 1000;
  auto add = [&](NodeId parent, const Rectangle& cell) {
    Value geometry(cell);
    if (rng.NextUint64(3) == 0) {
      // The diamond inscribed in the cell: same MBR, polygon θ.
      const Point c = cell.Center();
      geometry = Value(Polygon({Point(c.x, cell.min_y()),
                                Point(cell.max_x(), c.y),
                                Point(c.x, cell.max_y()),
                                Point(cell.min_x(), c.y)}));
    }
    const TupleId tuple =
        rng.NextUint64(3) == 0 ? kInvalidTupleId : next_tuple++;
    return tree->AddNode(parent, geometry, tuple);
  };
  std::function<void(NodeId, const Rectangle&, int)> grow =
      [&](NodeId parent, const Rectangle& cell, int depth) {
        const int64_t kids =
            depth < 3 ? 5 : (depth == 3 ? rng.NextInt(0, 5) : 0);
        for (int64_t k = 0; k < kids; ++k) {
          const double w = cell.width() * rng.NextDouble(0.3, 0.7);
          const double h = cell.height() * rng.NextDouble(0.3, 0.7);
          const double x = rng.NextDouble(cell.min_x(), cell.max_x() - w);
          const double y = rng.NextDouble(cell.min_y(), cell.max_y() - h);
          const Rectangle sub(x, y, x + w, y + h);
          grow(add(parent, sub), sub, depth + 1);
        }
      };
  grow(add(kInvalidNodeId, world), world, 0);
  return tree;
}

// 100 blocks of 60 rectangles, each holding its center point: the
// frontiers below the root's children (6000 nodes in 100 sibling runs,
// then 6000 runs of one) span many 256-visit poll strides, which cut the
// flat SELECT's sibling runs, and the first of them feeds the second.
std::unique_ptr<MemoryGenTree> WideHierarchy(const Rectangle& world) {
  auto tree = std::make_unique<MemoryGenTree>();
  const NodeId root = tree->AddNode(kInvalidNodeId, Value(world));
  TupleId next_tuple = 0;
  const double cell = world.width() / 10.0;
  for (int i = 0; i < 100; ++i) {
    const Rectangle block(world.min_x() + cell * (i % 10),
                          world.min_y() + cell * (i / 10),
                          world.min_x() + cell * (i % 10 + 1),
                          world.min_y() + cell * (i / 10 + 1));
    const NodeId parent = tree->AddNode(root, Value(block), next_tuple++);
    RectGenerator gen(block, static_cast<uint64_t>(500 + i));
    for (int k = 0; k < 60; ++k) {
      const Rectangle box = gen.NextRect(1, 8);
      const NodeId child = tree->AddNode(parent, Value(box), next_tuple++);
      tree->AddNode(child, Value(box.Center()), next_tuple++);
    }
  }
  return tree;
}

// A tree that is only its root (an application object).
std::unique_ptr<MemoryGenTree> OneNodeTree(const Rectangle& box) {
  auto tree = std::make_unique<MemoryGenTree>();
  tree->AddNode(kInvalidNodeId, Value(box), 7);
  return tree;
}

// Two rectangle relations with R-trees, mirroring the dispatcher fixture,
// plus thread pools of every width under test.
class ParallelExecTest : public ::testing::Test {
 protected:
  ParallelExecTest()
      : disk_(2000), pool_(&disk_, 2048), world_(0, 0, 600, 600) {
    Schema schema({{"id", ValueType::kInt64},
                   {"box", ValueType::kRectangle}});
    r_ = std::make_unique<Relation>("r", schema, &pool_);
    s_ = std::make_unique<Relation>("s", schema, &pool_);
    r_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic, 8);
    s_rtree_ = std::make_unique<RTree>(&pool_, RTreeSplit::kQuadratic, 8);
    RectGenerator gen_r(world_, 21);
    RectGenerator gen_s(world_, 22);
    for (int64_t i = 0; i < 200; ++i) {
      Rectangle box_r = gen_r.NextRect(2, 30);
      Rectangle box_s = gen_s.NextRect(2, 30);
      r_rtree_->Insert(box_r, r_->Insert(Tuple({Value(i), Value(box_r)})));
      s_rtree_->Insert(box_s, s_->Insert(Tuple({Value(i), Value(box_s)})));
    }
    r_adapter_ = std::make_unique<RTreeGenTree>(r_rtree_.get(), r_.get(), 1);
    s_adapter_ = std::make_unique<RTreeGenTree>(s_rtree_.get(), s_.get(), 1);
  }

  DiskManager disk_;
  BufferPool pool_;
  Rectangle world_;
  std::unique_ptr<Relation> r_;
  std::unique_ptr<Relation> s_;
  std::unique_ptr<RTree> r_rtree_;
  std::unique_ptr<RTree> s_rtree_;
  std::unique_ptr<RTreeGenTree> r_adapter_;
  std::unique_ptr<RTreeGenTree> s_adapter_;
};

// Pool widths under test; 0 means no pool (the path TreeJoin takes for
// FrozenTree inputs).
constexpr int kPoolWidths[] = {0, 1, 2, 4, 8};
constexpr int kThreadWidths[] = {1, 2, 4, 8};

std::unique_ptr<exec::ThreadPool> PoolOfWidth(int width) {
  return width == 0 ? nullptr : std::make_unique<exec::ThreadPool>(width);
}

std::string Where(const std::string& label, const ThetaOperator& op,
                  int width) {
  return label + " / " + op.name() + " @ " +
         (width == 0 ? std::string("no pool")
                     : std::to_string(width) + " threads");
}

// The pool tasks a pooled join ran since `*executed`, which it advances.
// ParallelFor claims, it does not spawn: a join runs at most W helpers per
// level of its trace.
int64_t CheckJoinTasks(const exec::ThreadPool& pool, int64_t* executed,
                       const QueryTrace& trace, const std::string& where) {
  const int64_t now = pool.stats().tasks_executed;
  const int64_t tasks = now - *executed;
  *executed = now;
  EXPECT_LE(tasks, pool.num_workers() *
                       static_cast<int64_t>(trace.levels().size()))
      << where;
  return tasks;
}

// Equal trace level shapes: the same heights, worklists and Θ outcomes
// (entries pruned vs descended), which every tree kernel must share.
void ExpectSameShape(const QueryTrace& got, const QueryTrace& want,
                     const std::string& where) {
  ASSERT_EQ(got.levels().size(), want.levels().size()) << where;
  for (size_t i = 0; i < want.levels().size(); ++i) {
    const TraceLevel& g = got.levels()[i];
    const TraceLevel& w = want.levels()[i];
    EXPECT_EQ(g.height, w.height) << where << " level " << i;
    EXPECT_EQ(g.worklist, w.worklist) << where << " level " << i;
    EXPECT_EQ(g.pruned, w.pruned) << where << " level " << i;
    EXPECT_EQ(g.descended, w.descended) << where << " level " << i;
  }
}

// Equal trace level counts: the same shape and, per level, the same Θ
// and θ tests.
void ExpectSameLevels(const QueryTrace& got, const QueryTrace& want,
                      const std::string& where) {
  ExpectSameShape(got, want, where);
  if (got.levels().size() != want.levels().size()) return;
  for (size_t i = 0; i < want.levels().size(); ++i) {
    const TraceLevel& g = got.levels()[i];
    const TraceLevel& w = want.levels()[i];
    EXPECT_EQ(g.theta_upper_tests, w.theta_upper_tests)
        << where << " level " << i;
    EXPECT_EQ(g.theta_tests, w.theta_tests) << where << " level " << i;
  }
}

// One JOIN4 selection pass of PrunedTreeJoin: join_detail::SelectPass,
// except that θ runs only on application nodes under an application
// selector, and a selector that is no application object Θ-tests the
// anchor's direct children only.
std::vector<NodeId> PrunedPass(const GeneralizationTree& selector_tree,
                               NodeId selector,
                               const GeneralizationTree& tree, NodeId anchor,
                               const ThetaOperator& op, bool selector_is_r,
                               JoinResult* result) {
  const bool selector_app = selector_tree.IsApplicationNode(selector);
  const Rectangle probe = selector_tree.MbrOf(selector);
  const Value selector_geom = selector_tree.Geometry(selector);
  std::vector<NodeId> qualifying;
  std::deque<std::pair<NodeId, bool>> worklist;  // (node, is_direct_child)
  for (NodeId child : tree.Children(anchor)) worklist.emplace_back(child, true);
  while (!worklist.empty()) {
    const auto [node, is_direct] = worklist.front();
    worklist.pop_front();
    ++result->theta_upper_tests;
    const Rectangle mbr = tree.MbrOf(node);
    if (!(selector_is_r ? op.ThetaUpper(probe, mbr)
                        : op.ThetaUpper(mbr, probe))) {
      continue;
    }
    if (is_direct) qualifying.push_back(node);
    ++result->nodes_accessed;
    if (!selector_app) continue;
    if (tree.IsApplicationNode(node)) {
      ++result->theta_tests;
      const Value geometry = tree.Geometry(node);
      if (selector_is_r ? op.Theta(selector_geom, geometry)
                        : op.Theta(geometry, selector_geom)) {
        const TupleId s = selector_tree.TupleOf(selector);
        const TupleId t = tree.TupleOf(node);
        result->matches.emplace_back(selector_is_r ? s : t,
                                     selector_is_r ? t : s);
      }
    }
    for (NodeId child : tree.Children(node)) {
      worklist.emplace_back(child, false);
    }
  }
  return qualifying;
}

// The flat kernel's contract, written plainly over the GeneralizationTree
// interface: the generic TreeJoin's level-synchronized traversal (the
// same QualPairs, visit order and matches) running only the tests that
// can change its answer. θ runs on a pair only when both nodes are
// application objects, since no other pair can match, and a JOIN4 pass
// led by a node that is no application object stops at the anchor's
// direct children, which seed the next level. Fills `trace` per level
// like the kernels do (Θ/θ tests, worklist, pruned, descended).
JoinResult PrunedTreeJoin(const GeneralizationTree& r_tree,
                          const GeneralizationTree& s_tree,
                          const ThetaOperator& op, QueryTrace* trace) {
  JoinResult result;
  std::vector<std::pair<NodeId, NodeId>> current{
      {r_tree.root(), s_tree.root()}};
  const int max_level = std::min(r_tree.height(), s_tree.height());
  for (int j = 0; j <= max_level && !current.empty(); ++j) {
    TraceLevel& level = trace->Level(j);
    level.worklist = static_cast<int64_t>(current.size());
    const int64_t theta_upper_before = result.theta_upper_tests;
    const int64_t theta_before = result.theta_tests;
    std::vector<std::pair<NodeId, NodeId>> next;
    for (const auto& [a, b] : current) {
      ++result.qual_pairs_examined;
      ++result.theta_upper_tests;
      if (!op.ThetaUpper(r_tree.MbrOf(a), s_tree.MbrOf(b))) {
        ++level.pruned;
        continue;
      }
      ++level.descended;
      result.nodes_accessed += 2;
      if (r_tree.IsApplicationNode(a) && s_tree.IsApplicationNode(b)) {
        ++result.theta_tests;
        if (op.Theta(r_tree.Geometry(a), s_tree.Geometry(b))) {
          result.matches.emplace_back(r_tree.TupleOf(a), s_tree.TupleOf(b));
        }
      }
      const std::vector<NodeId> qual_b = PrunedPass(
          r_tree, a, s_tree, b, op, /*selector_is_r=*/true, &result);
      const std::vector<NodeId> qual_a = PrunedPass(
          s_tree, b, r_tree, a, op, /*selector_is_r=*/false, &result);
      for (NodeId a2 : qual_a) {
        for (NodeId b2 : qual_b) next.emplace_back(a2, b2);
      }
    }
    level.theta_upper_tests = result.theta_upper_tests - theta_upper_before;
    level.theta_tests = result.theta_tests - theta_before;
    current = std::move(next);
  }
  return result;
}

// The flat kernel over snapshots of `r_src` and `s_src`, without a pool
// and at every width, against the generic TreeJoin on the sources
// themselves: the same matches in the same order, the same QualPairs and
// trace level shapes. Its Θ/θ tests and node accesses are the work it
// did, which must equal PrunedTreeJoin's on the sources, per level and in
// total — and a CountingTheta's counts must equal the counters. The
// undecorated operator, whose batched Θ is its own (the overlap family's
// SSE2 masks) where CountingTheta's is the per-element default, must do
// the same. Returns the pool tasks the widest runs executed, so callers
// can insist the chunked path ran.
int64_t ExpectFlatJoinIsExact(
    const GeneralizationTree& r_src, const GeneralizationTree& s_src,
    const std::string& label,
    const std::vector<NamedOp>& operators = Table1Operators()) {
  const exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(r_src);
  const exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(s_src);
  int64_t tasks = 0;
  for (const NamedOp& entry : operators) {
    QueryTrace generic_trace("join");
    const JoinResult generic =
        TreeJoin(r_src, s_src, *entry.op, &generic_trace);
    QueryTrace pruned_trace("join");
    const JoinResult pruned =
        PrunedTreeJoin(r_src, s_src, *entry.op, &pruned_trace);
    // The reference drops only tests that cannot change the answer.
    EXPECT_EQ(pruned.matches, generic.matches) << label;
    EXPECT_EQ(pruned.qual_pairs_examined, generic.qual_pairs_examined)
        << label;
    EXPECT_LE(pruned.theta_upper_tests, generic.theta_upper_tests) << label;
    EXPECT_LE(pruned.theta_tests, generic.theta_tests) << label;
    EXPECT_LE(pruned.nodes_accessed, generic.nodes_accessed) << label;
    ExpectSameShape(pruned_trace, generic_trace, label);
    for (int width : kPoolWidths) {
      const std::string where = Where(label, *entry.op, width);
      std::unique_ptr<exec::ThreadPool> workers = PoolOfWidth(width);
      CountingTheta counting(entry.op.get());
      QueryTrace flat_trace("join");
      const JoinResult flat = exec::ParallelTreeJoin(
          r_frozen, s_frozen, counting, workers.get(), nullptr, &flat_trace);
      EXPECT_EQ(flat.matches, generic.matches) << where;
      EXPECT_EQ(flat.qual_pairs_examined, generic.qual_pairs_examined)
          << where;
      EXPECT_EQ(flat.theta_upper_tests, pruned.theta_upper_tests) << where;
      EXPECT_EQ(flat.theta_tests, pruned.theta_tests) << where;
      EXPECT_EQ(flat.nodes_accessed, pruned.nodes_accessed) << where;
      EXPECT_EQ(counting.theta_upper_count(), flat.theta_upper_tests)
          << where;
      EXPECT_EQ(counting.theta_count(), flat.theta_tests) << where;
      ExpectSameLevels(flat_trace, pruned_trace, where);
      int64_t executed = 0;
      if (workers != nullptr) {
        const int64_t join_tasks =
            CheckJoinTasks(*workers, &executed, flat_trace, where);
        if (width == 8) tasks += join_tasks;
      }
      QueryTrace plain_trace("join");
      const JoinResult plain = exec::ParallelTreeJoin(
          r_frozen, s_frozen, *entry.op, workers.get(), nullptr, &plain_trace);
      if (workers != nullptr) {
        CheckJoinTasks(*workers, &executed, plain_trace,
                       where + " undecorated");
      }
      EXPECT_EQ(plain.matches, generic.matches) << where << " undecorated";
      EXPECT_EQ(plain.qual_pairs_examined, generic.qual_pairs_examined)
          << where << " undecorated";
      EXPECT_EQ(plain.theta_upper_tests, pruned.theta_upper_tests)
          << where << " undecorated";
      EXPECT_EQ(plain.theta_tests, pruned.theta_tests)
          << where << " undecorated";
      EXPECT_EQ(plain.nodes_accessed, pruned.nodes_accessed)
          << where << " undecorated";
      ExpectSameLevels(plain_trace, pruned_trace, where + " undecorated");
    }
    // TreeJoin itself takes the flat kernel for FrozenTree inputs.
    const JoinResult dispatched = TreeJoin(r_frozen, s_frozen, *entry.op);
    EXPECT_EQ(dispatched.matches, generic.matches) << label;
    EXPECT_EQ(dispatched.theta_upper_tests, pruned.theta_upper_tests)
        << label;
  }
  return tasks;
}

// The same contract for Algorithm SELECT: every Table 1 operator over
// `selectors`, the flat kernel against the generic SpatialSelect on the
// source, decorated by a CountingTheta and undecorated. Node ids differ
// between a source and its snapshot, so matching_nodes is compared
// against the generic traversal of the snapshot (SpatialSelectFrom never
// dispatches).
void ExpectFlatSelectIsExact(const GeneralizationTree& src,
                             const std::vector<Value>& selectors,
                             const std::string& label) {
  const exec::FrozenTree frozen = exec::FrozenTree::Materialize(src);
  for (const NamedOp& entry : Table1Operators()) {
    const std::string where = label + " / " + entry.op->name();
    for (const Value& selector : selectors) {
      QueryTrace generic_trace("select");
      const SelectResult generic =
          SpatialSelect(selector, src, *entry.op, Traversal::kBreadthFirst,
                        &generic_trace);
      const SelectResult generic_frozen = SpatialSelectFrom(
          selector, frozen, {frozen.root()}, *entry.op);
      CountingTheta counting(entry.op.get());
      QueryTrace flat_trace("select");
      const SelectResult flat =
          exec::FlatSelect(selector, frozen, counting, nullptr, &flat_trace);
      EXPECT_EQ(flat.matching_tuples, generic.matching_tuples) << where;
      EXPECT_EQ(flat.matching_nodes, generic_frozen.matching_nodes) << where;
      EXPECT_EQ(flat.theta_upper_tests, generic.theta_upper_tests) << where;
      EXPECT_EQ(flat.theta_tests, generic.theta_tests) << where;
      EXPECT_EQ(flat.nodes_accessed, generic.nodes_accessed) << where;
      EXPECT_EQ(counting.theta_upper_count(), flat.theta_upper_tests)
          << where;
      EXPECT_EQ(counting.theta_count(), flat.theta_tests) << where;
      ExpectSameLevels(flat_trace, generic_trace, where);
      QueryTrace plain_trace("select");
      const SelectResult plain =
          exec::FlatSelect(selector, frozen, *entry.op, nullptr, &plain_trace);
      EXPECT_EQ(plain.matching_tuples, generic.matching_tuples)
          << where << " undecorated";
      EXPECT_EQ(plain.matching_nodes, generic_frozen.matching_nodes)
          << where << " undecorated";
      EXPECT_EQ(plain.theta_upper_tests, generic.theta_upper_tests)
          << where << " undecorated";
      EXPECT_EQ(plain.theta_tests, generic.theta_tests)
          << where << " undecorated";
      EXPECT_EQ(plain.nodes_accessed, generic.nodes_accessed)
          << where << " undecorated";
      ExpectSameLevels(plain_trace, generic_trace, where + " undecorated");
      // SpatialSelect itself takes the flat kernel for a FrozenTree.
      const SelectResult dispatched =
          SpatialSelect(selector, frozen, *entry.op);
      EXPECT_EQ(dispatched.matching_nodes, generic_frozen.matching_nodes)
          << label;
    }
  }
}

TEST_F(ParallelExecTest, ParallelTreeJoinIsByteIdenticalToSequential) {
  // Rectangles: the disk-backed R-tree fixture.
  ExpectFlatJoinIsExact(*r_adapter_, *s_adapter_, "rectangles");

  // Polygons, numerous enough that the deep levels exceed one chunk: the
  // pooled runs must really have fanned out.
  RTreeSide r_poly = IndexedSide(&pool_, world_, 41, 400, /*polygons=*/true, 8);
  RTreeSide s_poly = IndexedSide(&pool_, world_, 42, 400, /*polygons=*/true, 8);
  EXPECT_GT(ExpectFlatJoinIsExact(*r_poly.adapter, *s_poly.adapter,
                                  "polygons"),
            0);

  // Application hierarchies: application interior nodes, unequal
  // heights, and a chunked level that is not the last.
  auto r_hier = RandomHierarchy(world_, 5);
  auto s_hier = RandomHierarchy(world_, 6);
  ASSERT_TRUE(r_hier->ValidateContainment());
  ASSERT_TRUE(s_hier->ValidateContainment());
  QueryTrace shape("join");
  TreeJoin(*r_hier, *s_hier, OverlapsOp(), &shape);
  ASSERT_EQ(shape.levels().size(), 5u);
  EXPECT_GT(shape.levels()[3].worklist, 4096);
  EXPECT_GT(ExpectFlatJoinIsExact(*r_hier, *s_hier, "hierarchies"), 0);
  ExpectFlatJoinIsExact(*r_hier, *s_adapter_, "hierarchy x rectangles");

  // One-node trees, on either side and on both.
  auto one = OneNodeTree(Rectangle(100, 100, 300, 300));
  ExpectFlatJoinIsExact(*one, *s_adapter_, "one-node x rectangles");
  ExpectFlatJoinIsExact(*r_adapter_, *one, "rectangles x one-node");
  ExpectFlatJoinIsExact(*one, *one, "one-node x one-node");
}

TEST_F(ParallelExecTest, WideNodesSpanTwoMaskWords) {
  // join_rect's node shape: 4 KiB pages give the R-trees a page-derived
  // fanout of 102, so JOIN2's block rows, the JOIN4 passes' sibling runs
  // and SELECT's runs cross the 64-bit boundary of the batched Θ's mask
  // (the other fixtures' R-trees have fanout 4 or 8).
  DiskManager disk(4096);
  BufferPool pool(&disk, 1024);
  const Rectangle world(0, 0, 1200, 1200);
  RTreeSide r = IndexedSide(&pool, world, 81, 2000, /*polygons=*/false,
                            /*max_entries=*/0);
  RTreeSide s = IndexedSide(&pool, world, 82, 2000, /*polygons=*/false,
                            /*max_entries=*/0);
  ASSERT_EQ(r.rtree->max_entries(), 102);
  ASSERT_GT(exec::FrozenTree::Materialize(*r.adapter).max_fanout(), 64);
  ASSERT_GT(exec::FrozenTree::Materialize(*s.adapter).max_fanout(), 64);
  // northwest_of matches about a quarter of all pairs (1M here), which
  // would make the references take seconds; its batched Θ is the
  // per-element default, which the CountingTheta runs of every other
  // operator take too.
  std::vector<NamedOp> operators = Table1Operators();
  std::erase_if(operators, [](const NamedOp& entry) {
    return std::string(entry.label) == "northwest_of";
  });
  ExpectFlatJoinIsExact(*r.adapter, *s.adapter, "wide rectangles",
                        operators);

  RectGenerator gen(world, 83);
  std::vector<Value> selectors{Value(world), Value(Rectangle())};
  for (int q = 0; q < 4; ++q) selectors.emplace_back(gen.NextRect(50, 400));
  ExpectFlatSelectIsExact(*s.adapter, selectors, "wide rectangles");
}

TEST_F(ParallelExecTest, FlatJoinThetaTestsOverlappingApplicationPairsOnce) {
  // Counted by brute force over the inputs, independently of either
  // kernel: over R-trees, θ runs exactly once per (R, S) pair of
  // application objects whose MBRs overlap (Θ of overlaps), and on no
  // directory node — whichever tree is taller, with or without a pool.
  // On rectangles θ equals Θ, so every θ test is a match.
  struct Case {
    const char* label;
    bool polygons;
    int64_t r_n;
    int64_t s_n;
    int r_height;
    int s_height;
  };
  const Case cases[] = {
      {"rectangles 5/5", false, 200, 200, 5, 5},
      {"rectangles 6/2", false, 600, 8, 6, 2},
      {"rectangles 2/6", false, 8, 600, 2, 6},
      {"polygons 5/5", true, 200, 200, 5, 5},
      {"polygons 6/2", true, 600, 8, 6, 2},
      {"polygons 2/6", true, 8, 600, 2, 6},
  };
  // A world dense enough that most objects overlap several others.
  const Rectangle world(0, 0, 60, 60);
  const OverlapsOp op;
  uint64_t seed = 60;
  int64_t tasks = 0;
  for (const Case& c : cases) {
    const RTreeSide r =
        IndexedSide(&pool_, world, ++seed, c.r_n, c.polygons, 4);
    const RTreeSide s =
        IndexedSide(&pool_, world, ++seed, c.s_n, c.polygons, 4);
    ASSERT_EQ(r.adapter->height(), c.r_height) << c.label;
    ASSERT_EQ(s.adapter->height(), c.s_height) << c.label;
    int64_t candidates = 0;
    for (const Rectangle& a : r.mbrs) {
      for (const Rectangle& b : s.mbrs) candidates += a.Overlaps(b) ? 1 : 0;
    }
    ASSERT_GT(candidates, 0) << c.label;
    const exec::FrozenTree r_frozen =
        exec::FrozenTree::Materialize(*r.adapter);
    const exec::FrozenTree s_frozen =
        exec::FrozenTree::Materialize(*s.adapter);
    for (int width : kPoolWidths) {
      const std::string where = Where(c.label, op, width);
      std::unique_ptr<exec::ThreadPool> workers = PoolOfWidth(width);
      QueryTrace trace("join");
      const JoinResult result = exec::ParallelTreeJoin(
          r_frozen, s_frozen, op, workers.get(), nullptr, &trace);
      EXPECT_EQ(result.theta_tests, candidates) << where;
      if (!c.polygons) {
        EXPECT_EQ(result.theta_tests,
                  static_cast<int64_t>(result.matches.size()))
            << where;
      }
      int64_t executed = 0;
      if (workers != nullptr) {
        const int64_t join_tasks =
            CheckJoinTasks(*workers, &executed, trace, where);
        if (width == 8) tasks += join_tasks;
      }
    }
  }
  // The equal-height joins are heavy enough to be cut into pool chunks.
  EXPECT_GT(tasks, 0);
}

TEST_F(ParallelExecTest, MultiStepRefineKeepsTheFlatJoinExact) {
  // join_poly's shape: 16-vertex stars whose vertex radii span 8× (2.5 to
  // 20). The operator is a plain OverlapsOp, so the flat kernel's θ takes
  // the multi-step refine on the FrozenTrees' records (a CountingTheta,
  // as ExpectFlatJoinIsExact uses, keeps the exact path).
  const StarShape join_poly{2.5, 20, 16};
  RTreeSide r = IndexedSide(&pool_, world_, 71, 400, true, 8, join_poly);
  RTreeSide s = IndexedSide(&pool_, world_, 72, 400, true, 8, join_poly);
  const exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(*r.adapter);
  const exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*s.adapter);
  ASSERT_TRUE(r_frozen.has_approx());
  ASSERT_TRUE(s_frozen.has_approx());
  const OverlapsOp op;

  // The approximations alone settle a large share of the θ candidates
  // (pairs of objects whose MBRs overlap), or the test proves little.
  int64_t candidates = 0;
  int64_t settled = 0;
  for (NodeId a = 0; a < r_frozen.num_nodes(); ++a) {
    const RingApprox* approx_a = r_frozen.ApproxAt(a);
    if (approx_a == nullptr) continue;
    const RingView ring_a = r_frozen.GeometryRef(a).AsPolygon().ring_view();
    for (NodeId b = 0; b < s_frozen.num_nodes(); ++b) {
      const RingApprox* approx_b = s_frozen.ApproxAt(b);
      if (approx_b == nullptr || !ring_a.mbr.Overlaps(s_frozen.MbrAt(b))) {
        continue;
      }
      ++candidates;
      const RingView ring_b =
          s_frozen.GeometryRef(b).AsPolygon().ring_view();
      settled += DecidingRule(ring_a, *approx_a, ring_b, *approx_b) !=
                         RefineRule::kExact
                     ? 1
                     : 0;
    }
  }
  ASSERT_GT(candidates, 1000);
  EXPECT_GT(settled * 100, candidates * 30) << settled << " of " << candidates;

  // Matches (in order), QualPairs and level shapes are the generic
  // kernel's on the R-tree adapters; Θ, θ and node accesses, in total and
  // per level, PrunedTreeJoin's.
  QueryTrace generic_trace("join");
  const JoinResult generic = TreeJoin(*r.adapter, *s.adapter, op,
                                      &generic_trace);
  QueryTrace pruned_trace("join");
  const JoinResult pruned =
      PrunedTreeJoin(*r.adapter, *s.adapter, op, &pruned_trace);
  ASSERT_EQ(pruned.theta_tests, candidates);
  for (int width : {1, 4}) {
    const std::string where = Where("join_poly stars", op, width);
    std::unique_ptr<exec::ThreadPool> workers = PoolOfWidth(width);
    QueryTrace flat_trace("join");
    const JoinResult flat = exec::ParallelTreeJoin(
        r_frozen, s_frozen, op, workers.get(), nullptr, &flat_trace);
    EXPECT_EQ(flat.matches, generic.matches) << where;
    EXPECT_EQ(flat.qual_pairs_examined, generic.qual_pairs_examined)
        << where;
    EXPECT_EQ(flat.theta_upper_tests, pruned.theta_upper_tests) << where;
    EXPECT_EQ(flat.theta_tests, pruned.theta_tests) << where;
    EXPECT_EQ(flat.nodes_accessed, pruned.nodes_accessed) << where;
    ExpectSameShape(flat_trace, generic_trace, where);
    ExpectSameLevels(flat_trace, pruned_trace, where);
    if (width == 4) {
      int64_t executed = 0;
      EXPECT_GT(CheckJoinTasks(*workers, &executed, flat_trace, where), 0)
          << where;
    }
  }
}

TEST_F(ParallelExecTest, RecordsGoToPolygonApplicationObjectsOnly) {
  // Rectangles only: no record storage at all.
  const exec::FrozenTree rects = exec::FrozenTree::Materialize(*r_adapter_);
  EXPECT_FALSE(rects.has_approx());
  for (NodeId node = 0; node < rects.num_nodes(); ++node) {
    EXPECT_EQ(rects.ApproxAt(node), nullptr) << node;
  }
  // The Fig. 3 hierarchy: polygons at every level, rectangles and
  // technical nodes between them. Exactly the polygon application
  // objects carry a record, inner ones included.
  auto hierarchy = RandomHierarchy(world_, 5);
  const exec::FrozenTree frozen = exec::FrozenTree::Materialize(*hierarchy);
  ASSERT_TRUE(frozen.has_approx());
  int64_t inner_records = 0;
  for (NodeId node = 0; node < frozen.num_nodes(); ++node) {
    const bool polygon_object =
        frozen.IsApplicationAt(node) &&
        frozen.GeometryRef(node).type() == ValueType::kPolygon;
    EXPECT_EQ(frozen.ApproxAt(node) != nullptr, polygon_object) << node;
    if (polygon_object && frozen.ChildSpan(node).size() > 0) ++inner_records;
  }
  EXPECT_GT(inner_records, 0);
}

TEST_F(ParallelExecTest, PartitionedJoinMatchesSequentialResultSet) {
  std::vector<exec::JoinItem> r_items = exec::CollectJoinItems(*r_, 1);
  std::vector<exec::JoinItem> s_items = exec::CollectJoinItems(*s_, 1);
  for (const NamedOp& entry : Table1Operators()) {
    ASSERT_TRUE(exec::PartitionedJoinSupports(*entry.op)) << entry.label;
    JoinResult sequential = TreeJoin(*r_adapter_, *s_adapter_, *entry.op);
    MatchSet truth = AsSet(sequential);
    JoinResult reference;
    for (int width : kThreadWidths) {
      exec::ThreadPool workers(width);
      JoinResult partitioned =
          exec::PartitionedJoin(r_items, s_items, *entry.op, &workers);
      EXPECT_EQ(AsSet(partitioned), truth)
          << entry.label << " @ " << width << " threads";
      if (width == kThreadWidths[0]) {
        reference = partitioned;
      } else {
        // Determinism across widths: identical ordered output, not only
        // an identical set.
        EXPECT_EQ(partitioned.matches, reference.matches)
            << entry.label << " @ " << width << " threads";
      }
    }
  }
}

TEST_F(ParallelExecTest, ParallelSelectMatchesSequentialSelect) {
  RectGenerator gen(world_, 99);
  std::vector<Value> selectors;
  for (int q = 0; q < 5; ++q) selectors.emplace_back(gen.NextRect(20, 80));
  selectors.emplace_back(Rectangle());  // the empty selector MBR
  ExpectFlatSelectIsExact(*s_adapter_, selectors, "rectangles");

  auto hierarchy = RandomHierarchy(world_, 8);
  ExpectFlatSelectIsExact(*hierarchy, selectors, "hierarchy");
  ExpectFlatSelectIsExact(*OneNodeTree(Rectangle(100, 100, 300, 300)),
                          selectors, "one-node");

  // Frontiers of 6000 nodes, whose sibling runs the 256-visit poll
  // stride cuts.
  auto wide = WideHierarchy(world_);
  ExpectFlatSelectIsExact(*wide, {Value(world_)}, "wide");
}

TEST_F(ParallelExecTest, DispatcherRunsParallelStrategies) {
  exec::ThreadPool workers(4);
  SpatialJoinContext ctx;
  ctx.r = r_.get();
  ctx.col_r = 1;
  ctx.s = s_.get();
  ctx.col_s = 1;
  ctx.r_tree = r_adapter_.get();
  ctx.s_tree = s_adapter_.get();
  ctx.exec_pool = &workers;
  OverlapsOp op;
  JoinResult baseline = ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
  JoinResult parallel = ExecuteJoin(JoinStrategy::kParallelTreeJoin, ctx, op);
  JoinResult partitioned =
      ExecuteJoin(JoinStrategy::kPartitionedJoin, ctx, op);
  EXPECT_EQ(parallel.matches, baseline.matches);
  EXPECT_EQ(AsSet(partitioned), AsSet(baseline));

  RectGenerator gen(world_, 7);
  Value selector(gen.NextRect(20, 80));
  JoinResult tree_select = ExecuteSelect(SelectStrategy::kTree, ctx, selector,
                                         kInvalidTupleId, op);
  // SELECT runs on the caller; over a FrozenTree, kTree takes the flat
  // kernel.
  const exec::FrozenTree s_frozen = exec::FrozenTree::Materialize(*s_adapter_);
  SpatialJoinContext frozen_ctx = ctx;
  frozen_ctx.s_tree = &s_frozen;
  JoinResult flat_select = ExecuteSelect(SelectStrategy::kTree, frozen_ctx,
                                         selector, kInvalidTupleId, op);
  EXPECT_EQ(flat_select.matches, tree_select.matches);

  // Traced over the same FrozenTree snapshots, the pooled join records
  // the levels the sequential tree_join records (wall time aside).
  const exec::FrozenTree r_frozen = exec::FrozenTree::Materialize(*r_adapter_);
  frozen_ctx.r_tree = &r_frozen;
  QueryTrace sequential_trace("join");
  QueryTrace pooled_trace("join");
  frozen_ctx.trace = &sequential_trace;
  const JoinResult sequential =
      ExecuteJoin(JoinStrategy::kTreeJoin, frozen_ctx, op);
  frozen_ctx.trace = &pooled_trace;
  const JoinResult pooled =
      ExecuteJoin(JoinStrategy::kParallelTreeJoin, frozen_ctx, op);
  EXPECT_EQ(pooled.matches, sequential.matches);
  ASSERT_FALSE(sequential_trace.levels().empty());
  ASSERT_EQ(pooled_trace.levels().size(), sequential_trace.levels().size());
  for (size_t i = 0; i < sequential_trace.levels().size(); ++i) {
    const TraceLevel& want = sequential_trace.levels()[i];
    const TraceLevel& got = pooled_trace.levels()[i];
    EXPECT_EQ(got.height, want.height) << "level " << i;
    EXPECT_EQ(got.worklist, want.worklist) << "level " << i;
    EXPECT_EQ(got.pruned, want.pruned) << "level " << i;
    EXPECT_EQ(got.descended, want.descended) << "level " << i;
    EXPECT_EQ(got.theta_upper_tests, want.theta_upper_tests) << "level " << i;
    EXPECT_EQ(got.theta_tests, want.theta_tests) << "level " << i;
  }
}

// Rectangles laid out to straddle tile boundaries: with a forced 4x4 grid
// over [0,100]², these spans are replicated into several tiles, and the
// reference-point rule must emit each qualifying pair exactly once.
TEST(PartitionedJoinDedup, BoundarySpanningRectanglesEmitNoDuplicates) {
  std::vector<exec::JoinItem> r_items;
  std::vector<exec::JoinItem> s_items;
  TupleId next = 0;
  // Wide horizontal slabs crossing every vertical tile boundary, and tall
  // vertical slabs crossing every horizontal one — every R/S pair
  // overlaps in many tiles.
  for (int i = 0; i < 4; ++i) {
    Rectangle horizontal(0.0, 10.0 + 20.0 * i, 100.0, 18.0 + 20.0 * i);
    r_items.push_back({next++, horizontal, Value(horizontal)});
    Rectangle vertical(10.0 + 20.0 * i, 0.0, 18.0 + 20.0 * i, 100.0);
    s_items.push_back({next++, vertical, Value(vertical)});
  }
  // A rectangle whose corner sits exactly on a tile boundary.
  Rectangle on_corner(25.0, 25.0, 75.0, 75.0);
  r_items.push_back({next++, on_corner, Value(on_corner)});
  s_items.push_back({next++, on_corner, Value(on_corner)});

  OverlapsOp op;
  exec::ThreadPool workers(4);
  exec::PartitionedJoinOptions options;
  options.grid_cols = 4;
  options.grid_rows = 4;
  JoinResult result =
      exec::PartitionedJoin(r_items, s_items, op, &workers, options);

  // Brute-force truth over the raw items.
  MatchSet truth;
  for (const exec::JoinItem& ri : r_items) {
    for (const exec::JoinItem& si : s_items) {
      if (op.Theta(ri.geometry, si.geometry)) truth.insert({ri.tid, si.tid});
    }
  }
  EXPECT_EQ(AsSet(result), truth);
  EXPECT_GE(truth.size(), 16u);  // the slab grid alone yields 4x4 matches
  // No pair was emitted twice despite multi-tile replication — checked on
  // the raw match list, before any normalization.
  EXPECT_EQ(result.matches.size(), AsSet(result).size());
}

}  // namespace
}  // namespace spatialjoin
