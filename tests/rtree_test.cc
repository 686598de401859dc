#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/memory_gentree.h"
#include "exec/frozen_tree.h"
#include "quadtree/quadtree.h"
#include "relational/relation.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/hierarchy_generator.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

// Parameterized over both split algorithms.
class RTreeSplitTest : public ::testing::TestWithParam<RTreeSplit> {
 protected:
  RTreeSplitTest() : disk_(2000), pool_(&disk_, 512) {}
  DiskManager disk_;
  BufferPool pool_;
};

TEST_P(RTreeSplitTest, InsertSearchSmall) {
  RTree tree(&pool_, GetParam(), 8);
  tree.Insert(Rectangle(0, 0, 1, 1), 1);
  tree.Insert(Rectangle(5, 5, 6, 6), 2);
  tree.Insert(Rectangle(0.5, 0.5, 2, 2), 3);
  std::vector<TupleId> hits = tree.SearchTids(Rectangle(0, 0, 1.2, 1.2));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<TupleId>{1, 3}));
  EXPECT_TRUE(tree.SearchTids(Rectangle(10, 10, 11, 11)).empty());
  tree.CheckInvariants();
}

TEST_P(RTreeSplitTest, SearchMatchesBruteForce) {
  RTree tree(&pool_, GetParam(), 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 17);
  std::vector<Rectangle> data = gen.Rects(500, 1, 30);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(data[i], static_cast<TupleId>(i));
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.num_entries(), 500);
  EXPECT_GE(tree.height(), 2);
  for (int q = 0; q < 50; ++q) {
    Rectangle window = gen.NextRect(10, 150);
    std::vector<TupleId> hits = tree.SearchTids(window);
    std::vector<TupleId> expected;
    for (size_t i = 0; i < data.size(); ++i) {
      if (data[i].Overlaps(window)) {
        expected.push_back(static_cast<TupleId>(i));
      }
    }
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, expected) << "window " << window.ToString();
  }
}

TEST_P(RTreeSplitTest, DeleteMaintainsInvariantsAndResults) {
  RTree tree(&pool_, GetParam(), 8);
  RectGenerator gen(Rectangle(0, 0, 500, 500), 29);
  std::vector<Rectangle> data = gen.Rects(300, 1, 20);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(data[i], static_cast<TupleId>(i));
  }
  // Delete every third entry.
  std::set<TupleId> deleted;
  for (size_t i = 0; i < data.size(); i += 3) {
    ASSERT_TRUE(tree.Delete(data[i], static_cast<TupleId>(i))) << i;
    deleted.insert(static_cast<TupleId>(i));
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.num_entries(), 200);
  // Deleted entries are gone, others remain findable.
  Rectangle everything(0, 0, 500, 500);
  std::vector<TupleId> hits = tree.SearchTids(everything);
  EXPECT_EQ(hits.size(), 200u);
  for (TupleId tid : hits) EXPECT_FALSE(deleted.count(tid));
  // Deleting a non-existent entry fails cleanly.
  EXPECT_FALSE(tree.Delete(Rectangle(0, 0, 1, 1), 99999));
}

TEST_P(RTreeSplitTest, DeleteToEmptyAndReuse) {
  RTree tree(&pool_, GetParam(), 4);
  std::vector<Rectangle> rects;
  for (int i = 0; i < 40; ++i) {
    Rectangle r(i, i, i + 1.0, i + 1.0);
    rects.push_back(r);
    tree.Insert(r, i);
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(tree.Delete(rects[static_cast<size_t>(i)], i));
  }
  EXPECT_EQ(tree.num_entries(), 0);
  EXPECT_TRUE(tree.SearchTids(Rectangle(0, 0, 100, 100)).empty());
  // The tree remains usable.
  tree.Insert(Rectangle(1, 1, 2, 2), 7);
  EXPECT_EQ(tree.SearchTids(Rectangle(0, 0, 3, 3)),
            std::vector<TupleId>{7});
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Splits, RTreeSplitTest,
                         ::testing::Values(RTreeSplit::kLinear,
                                           RTreeSplit::kQuadratic,
                                           RTreeSplit::kRStar),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case RTreeSplit::kLinear:
                               return "Linear";
                             case RTreeSplit::kQuadratic:
                               return "Quadratic";
                             default:
                               return "RStar";
                           }
                         });

TEST(RTreeTest, RootMbrCoversEverything) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 128);
  RTree tree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 100, 100), 3);
  Rectangle bound;
  for (int i = 0; i < 100; ++i) {
    Rectangle r = gen.NextRect(1, 5);
    bound.Extend(r);
    tree.Insert(r, i);
  }
  EXPECT_EQ(tree.RootMbr(), bound);
}

TEST(RTreeTest, SearchCountsPageIo) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 512);
  RTree tree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 5);
  for (int i = 0; i < 1000; ++i) tree.Insert(gen.NextRect(1, 5), i);
  ASSERT_TRUE(pool.Clear().ok());
  BufferPoolStats before = pool.stats();
  tree.SearchTids(Rectangle(0, 0, 50, 50));
  BufferPoolStats after = pool.stats();
  int64_t faults = after.misses - before.misses;
  // A small window touches few pages; a full scan touches all nodes.
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, tree.num_nodes());
}

TEST(RTreeBulkLoadTest, StrPackingMatchesBruteForce) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 1024);
  RTree tree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 41);
  std::vector<std::pair<Rectangle, TupleId>> entries;
  for (int64_t i = 0; i < 700; ++i) {
    entries.emplace_back(gen.NextRect(1, 20), i);
  }
  tree.BulkLoadStr(entries);
  tree.CheckInvariants();
  EXPECT_EQ(tree.num_entries(), 700);
  for (int q = 0; q < 30; ++q) {
    Rectangle window = gen.NextRect(20, 150);
    std::vector<TupleId> hits = tree.SearchTids(window);
    std::vector<TupleId> expected;
    for (const auto& [mbr, tid] : entries) {
      if (mbr.Overlaps(window)) expected.push_back(tid);
    }
    std::sort(hits.begin(), hits.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(hits, expected);
  }
}

TEST(RTreeBulkLoadTest, PacksTighterThanInsertion) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 2048);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 43);
  std::vector<std::pair<Rectangle, TupleId>> entries;
  for (int64_t i = 0; i < 2000; ++i) {
    entries.emplace_back(gen.NextRect(1, 10), i);
  }
  RTree inserted(&pool, RTreeSplit::kQuadratic, 8);
  for (const auto& [mbr, tid] : entries) inserted.Insert(mbr, tid);
  RTree packed(&pool, RTreeSplit::kQuadratic, 8);
  packed.BulkLoadStr(entries);
  packed.CheckInvariants();
  // Full packing needs strictly fewer nodes than ~60%-full insertion.
  EXPECT_LT(packed.num_nodes(), inserted.num_nodes());
}

TEST(RTreeBulkLoadTest, SmallAndDegenerateInputs) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 256);
  {
    RTree tree(&pool, RTreeSplit::kQuadratic, 8);
    tree.BulkLoadStr({});
    EXPECT_EQ(tree.num_entries(), 0);
    EXPECT_TRUE(tree.SearchTids(Rectangle(0, 0, 1, 1)).empty());
  }
  {
    RTree tree(&pool, RTreeSplit::kQuadratic, 8);
    tree.BulkLoadStr({{Rectangle(1, 1, 2, 2), 7}});
    EXPECT_EQ(tree.num_entries(), 1);
    EXPECT_EQ(tree.height(), 1);
    EXPECT_EQ(tree.SearchTids(Rectangle(0, 0, 3, 3)),
              std::vector<TupleId>{7});
    tree.CheckInvariants();
  }
  {
    // 9 entries with fan-out 8: the 1-entry remainder must be folded so
    // no node underflows.
    RTree tree(&pool, RTreeSplit::kQuadratic, 8);
    std::vector<std::pair<Rectangle, TupleId>> entries;
    for (int64_t i = 0; i < 9; ++i) {
      double x = static_cast<double>(i);
      entries.emplace_back(Rectangle(x, 0, x + 0.5, 1), i);
    }
    tree.BulkLoadStr(entries);
    tree.CheckInvariants();
    EXPECT_EQ(tree.SearchTids(Rectangle(0, 0, 10, 1)).size(), 9u);
  }
}

TEST(RTreeBulkLoadTest, FillFactorControlsPacking) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 1024);
  RectGenerator gen(Rectangle(0, 0, 500, 500), 45);
  std::vector<std::pair<Rectangle, TupleId>> entries;
  for (int64_t i = 0; i < 640; ++i) {
    entries.emplace_back(gen.NextRect(1, 5), i);
  }
  RTree full(&pool, RTreeSplit::kQuadratic, 8);
  full.BulkLoadStr(entries, 1.0);
  RTree loose(&pool, RTreeSplit::kQuadratic, 8);
  loose.BulkLoadStr(entries, 0.5);
  full.CheckInvariants();
  loose.CheckInvariants();
  EXPECT_LT(full.num_nodes(), loose.num_nodes());
}

TEST(RTreeBulkLoadDeathTest, RejectsNonEmptyTree) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 256);
  RTree tree(&pool, RTreeSplit::kQuadratic, 8);
  tree.Insert(Rectangle(0, 0, 1, 1), 0);
  EXPECT_DEATH(tree.BulkLoadStr({{Rectangle(2, 2, 3, 3), 1}}),
               "empty tree");
}

class RTreeGenTreeTest : public ::testing::Test {
 protected:
  RTreeGenTreeTest() : disk_(2000), pool_(&disk_, 512) {}
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(RTreeGenTreeTest, StructureMatchesRTree) {
  RTree rtree(&pool_, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 100, 100), 9);
  for (int i = 0; i < 200; ++i) rtree.Insert(gen.NextRect(1, 5), i);
  RTreeGenTree adapter(&rtree, nullptr, 0);

  EXPECT_EQ(adapter.height(), rtree.height());
  EXPECT_EQ(adapter.HeightOf(adapter.root()), 0);
  EXPECT_FALSE(adapter.IsApplicationNode(adapter.root()));

  // Walk the whole tree; count application nodes = data entries, check
  // the containment invariant and height bookkeeping.
  int64_t app_nodes = 0;
  std::vector<NodeId> stack{adapter.root()};
  while (!stack.empty()) {
    NodeId node = stack.back();
    stack.pop_back();
    Rectangle mbr = adapter.MbrOf(node);
    for (NodeId child : adapter.Children(node)) {
      EXPECT_TRUE(mbr.Contains(adapter.MbrOf(child)));
      EXPECT_EQ(adapter.HeightOf(child), adapter.HeightOf(node) + 1);
      stack.push_back(child);
    }
    if (adapter.IsApplicationNode(node)) {
      ++app_nodes;
      EXPECT_EQ(adapter.HeightOf(node), adapter.height());
      EXPECT_NE(adapter.TupleOf(node), kInvalidTupleId);
      EXPECT_TRUE(adapter.Children(node).empty());
    } else {
      EXPECT_EQ(adapter.TupleOf(node), kInvalidTupleId);
    }
  }
  EXPECT_EQ(app_nodes, rtree.num_entries());
}

// The R-tree adapter as it reads pages when every accessor decodes the
// whole node (RTree::ReadNode) and every leaf geometry the whole tuple:
// the oracle for RTreeGenTree's one-entry reads, its one-page child
// reads and its one-column tuple decode. Node ids use the adapter's
// encoding, page * 256 + slot + 1, so the two trees' ids can be compared
// directly.
class FullPageDecodeGenTree : public GeneralizationTree {
 public:
  FullPageDecodeGenTree(const RTree* rtree, const Relation* relation,
                        size_t column)
      : rtree_(rtree), relation_(relation), column_(column) {}

  NodeId root() const override { return 0; }
  int height() const override { return rtree_->height(); }
  int HeightOf(NodeId node) const override {
    if (node == 0) return 0;
    return (rtree_->height() - 1) - rtree_->ReadNode(PageOf(node)).level + 1;
  }
  std::vector<NodeId> Children(NodeId node) const override {
    PageId page = rtree_->root_page();
    if (node != 0) {
      const RTree::NodeView view = rtree_->ReadNode(PageOf(node));
      if (view.is_leaf) return {};
      page = view.payloads[SlotOf(node)];
    }
    const RTree::NodeView child = rtree_->ReadNode(page);
    std::vector<NodeId> children;
    for (size_t i = 0; i < child.payloads.size(); ++i) {
      children.push_back(page * 256 + static_cast<NodeId>(i) + 1);
    }
    return children;
  }
  Value Geometry(NodeId node) const override {
    if (node == 0) return Value(rtree_->RootMbr());
    const RTree::NodeView view = rtree_->ReadNode(PageOf(node));
    if (view.is_leaf && relation_ != nullptr) {
      return relation_->Read(view.payloads[SlotOf(node)]).value(column_);
    }
    return Value(view.mbrs[SlotOf(node)]);
  }
  Rectangle MbrOf(NodeId node) const override {
    if (node == 0) return rtree_->RootMbr();
    return rtree_->ReadNode(PageOf(node)).mbrs[SlotOf(node)];
  }
  bool IsApplicationNode(NodeId node) const override {
    return node != 0 && rtree_->ReadNode(PageOf(node)).is_leaf;
  }
  TupleId TupleOf(NodeId node) const override {
    if (node == 0) return kInvalidTupleId;
    const RTree::NodeView view = rtree_->ReadNode(PageOf(node));
    return view.is_leaf ? view.payloads[SlotOf(node)] : kInvalidTupleId;
  }
  int64_t num_nodes() const override {
    return 1 + rtree_->num_entries() + (rtree_->num_nodes() - 1);
  }
  // The parent's page once (not for the root), then the child page once.
  void ReadChildren(NodeId node,
                    std::vector<ChildRecord>* out) const override {
    out->clear();
    PageId page = rtree_->root_page();
    if (node != 0) {
      const RTree::NodeView parent = rtree_->ReadNode(PageOf(node));
      if (parent.is_leaf) return;
      page = parent.payloads[SlotOf(node)];
    }
    const RTree::NodeView view = rtree_->ReadNode(page);
    for (size_t i = 0; i < view.payloads.size(); ++i) {
      ChildRecord& child = out->emplace_back();
      child.id = page * 256 + static_cast<NodeId>(i) + 1;
      child.mbr = view.mbrs[i];
      child.height = rtree_->height() - view.level;
      child.application = view.is_leaf;
      child.expandable = !view.is_leaf;
      child.tuple = view.is_leaf ? view.payloads[i] : kInvalidTupleId;
      child.geometry = view.is_leaf && relation_ != nullptr
                           ? relation_->Read(view.payloads[i]).value(column_)
                           : Value(view.mbrs[i]);
    }
  }

 private:
  static PageId PageOf(NodeId node) { return (node - 1) / 256; }
  static size_t SlotOf(NodeId node) {
    return static_cast<size_t>((node - 1) % 256);
  }

  const RTree* rtree_;
  const Relation* relation_;
  size_t column_;
};

// Forwards every accessor of `tree` but not ReadChildren, so Materialize
// over it runs the interface's default: the per-node accessor walk.
class AccessorWalk : public GeneralizationTree {
 public:
  explicit AccessorWalk(const GeneralizationTree* tree) : tree_(tree) {}

  NodeId root() const override { return tree_->root(); }
  int height() const override { return tree_->height(); }
  int HeightOf(NodeId node) const override { return tree_->HeightOf(node); }
  std::vector<NodeId> Children(NodeId node) const override {
    return tree_->Children(node);
  }
  Value Geometry(NodeId node) const override { return tree_->Geometry(node); }
  Rectangle MbrOf(NodeId node) const override { return tree_->MbrOf(node); }
  bool IsApplicationNode(NodeId node) const override {
    return tree_->IsApplicationNode(node);
  }
  TupleId TupleOf(NodeId node) const override { return tree_->TupleOf(node); }
  int64_t num_nodes() const override { return tree_->num_nodes(); }

 private:
  const GeneralizationTree* tree_;
};

// Plane values compare equal when both are NaN (the empty MBR).
bool SamePlaneValue(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// `got` and `want` hold the same snapshot, field by field.
void ExpectSameSnapshot(const exec::FrozenTree& got,
                        const exec::FrozenTree& want,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.height(), want.height());
  EXPECT_EQ(got.max_fanout(), want.max_fanout());
  EXPECT_EQ(got.has_approx(), want.has_approx());
  const MbrPlanes a = got.planes();
  const MbrPlanes b = want.planes();
  for (NodeId node = 0; node < want.num_nodes(); ++node) {
    EXPECT_TRUE(SamePlaneValue(a.min_x[node], b.min_x[node])) << node;
    EXPECT_TRUE(SamePlaneValue(a.min_y[node], b.min_y[node])) << node;
    EXPECT_TRUE(SamePlaneValue(a.max_x[node], b.max_x[node])) << node;
    EXPECT_TRUE(SamePlaneValue(a.max_y[node], b.max_y[node])) << node;
    EXPECT_EQ(got.TupleAt(node), want.TupleAt(node)) << node;
    EXPECT_EQ(got.HeightAt(node), want.HeightAt(node)) << node;
    EXPECT_EQ(got.IsApplicationAt(node), want.IsApplicationAt(node)) << node;
    EXPECT_EQ(got.ChildSpan(node).begin, want.ChildSpan(node).begin) << node;
    EXPECT_EQ(got.ChildSpan(node).end, want.ChildSpan(node).end) << node;
    EXPECT_EQ(got.GeometryRef(node), want.GeometryRef(node)) << node;
    const RingApprox* ra = got.ApproxAt(node);
    const RingApprox* rb = want.ApproxAt(node);
    ASSERT_EQ(ra == nullptr, rb == nullptr) << node;
    if (ra != nullptr) {
      EXPECT_EQ(std::memcmp(ra, rb, sizeof(RingApprox)), 0) << node;
    }
  }
}

// Materialize over `tree` and over its accessor walk give one snapshot.
void ExpectPagedMaterializeMatchesAccessorWalk(const GeneralizationTree& tree,
                                               const std::string& label) {
  const AccessorWalk walk(&tree);
  const exec::FrozenTree got = exec::FrozenTree::Materialize(tree);
  const exec::FrozenTree want = exec::FrozenTree::Materialize(walk);
  EXPECT_EQ(got.num_nodes(), tree.num_nodes()) << label;
  ExpectSameSnapshot(got, want, label);
}

// A three-level R-tree over polygons whose pages, with the relation's,
// far exceed a small buffer pool, so any change in the order of page
// accesses shows in the hit and miss counts.
class RTreeGenTreeReadsTest : public ::testing::Test {
 protected:
  RTreeGenTreeReadsTest()
      : disk_(2000),
        pool_(&disk_, 8),
        relation_("r",
                  Schema({{"id", ValueType::kInt64},
                          {"geom", ValueType::kPolygon}}),
                  &pool_),
        rtree_(&pool_, RTreeSplit::kQuadratic, 6) {
    RectGenerator gen(Rectangle(0, 0, 100, 100), 21);
    for (int i = 0; i < 120; ++i) {
      const Polygon shape = gen.NextPolygon(1, 4, 7);
      const TupleId tid = relation_.Insert(
          Tuple({Value(static_cast<int64_t>(i)), Value(shape)}));
      rtree_.Insert(shape.BoundingBox(), tid);
    }
  }

  DiskManager disk_;
  BufferPool pool_;
  Relation relation_;
  RTree rtree_;
};

TEST_F(RTreeGenTreeReadsTest, AccessorsMatchFullPageDecode) {
  ASSERT_EQ(rtree_.height(), 3);
  const std::vector<const Relation*> relations = {&relation_, nullptr};
  for (const Relation* relation : relations) {
    const RTreeGenTree adapter(&rtree_, relation, 1);
    const FullPageDecodeGenTree oracle(&rtree_, relation, 1);
    EXPECT_EQ(adapter.num_nodes(), oracle.num_nodes());
    int64_t visited = 0;
    std::vector<NodeId> stack{oracle.root()};
    while (!stack.empty()) {
      const NodeId node = stack.back();
      stack.pop_back();
      ++visited;
      EXPECT_EQ(adapter.Geometry(node), oracle.Geometry(node)) << node;
      EXPECT_EQ(adapter.MbrOf(node), oracle.MbrOf(node)) << node;
      EXPECT_EQ(adapter.TupleOf(node), oracle.TupleOf(node)) << node;
      EXPECT_EQ(adapter.HeightOf(node), oracle.HeightOf(node)) << node;
      EXPECT_EQ(adapter.IsApplicationNode(node),
                oracle.IsApplicationNode(node))
          << node;
      const std::vector<NodeId> children = oracle.Children(node);
      EXPECT_EQ(adapter.Children(node), children) << node;
      stack.insert(stack.end(), children.begin(), children.end());
    }
    EXPECT_EQ(visited, oracle.num_nodes());
  }
}

TEST_F(RTreeGenTreeReadsTest, MaterializeMakesTheSamePoolAccesses) {
  const RTreeGenTree adapter(&rtree_, &relation_, 1);
  const FullPageDecodeGenTree oracle(&rtree_, &relation_, 1);
  const AccessorWalk walk(&adapter);
  auto cold_materialize = [&](const GeneralizationTree& source,
                              BufferPoolStats* stats) {
    EXPECT_TRUE(pool_.Clear().ok());
    pool_.ResetStats();
    exec::FrozenTree frozen = exec::FrozenTree::Materialize(source);
    *stats = pool_.stats();
    return frozen;
  };
  BufferPoolStats adapter_stats;
  BufferPoolStats oracle_stats;
  BufferPoolStats walk_stats;
  const exec::FrozenTree got = cold_materialize(adapter, &adapter_stats);
  const exec::FrozenTree want = cold_materialize(oracle, &oracle_stats);
  (void)cold_materialize(walk, &walk_stats);
  EXPECT_GT(oracle_stats.misses, 50);
  EXPECT_GT(oracle_stats.evictions, 50);
  EXPECT_EQ(adapter_stats.hits, oracle_stats.hits);
  EXPECT_EQ(adapter_stats.misses, oracle_stats.misses);
  EXPECT_EQ(adapter_stats.evictions, oracle_stats.evictions);
  // One read per node page and one per tuple, against the accessor
  // walk's page read per accessor call.
  EXPECT_LT(adapter_stats.hits + adapter_stats.misses,
            walk_stats.hits + walk_stats.misses);
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId node = 0; node < want.num_nodes(); ++node) {
    EXPECT_EQ(got.Geometry(node), want.Geometry(node));
    EXPECT_EQ(got.MbrOf(node), want.MbrOf(node));
    EXPECT_EQ(got.TupleOf(node), want.TupleOf(node));
    EXPECT_EQ(got.HeightOf(node), want.HeightOf(node));
    EXPECT_EQ(got.IsApplicationNode(node), want.IsApplicationNode(node));
    EXPECT_EQ(got.Children(node), want.Children(node));
  }
}

// An R-tree over `count` rectangles or 7-gons stored in `layout`,
// inserted at fan-out 6 or bulk-loaded at the page-derived fan-out (0).
struct IndexedRelation {
  IndexedRelation(BufferPool* pool, bool polygons, RelationLayout layout,
                  int fanout, int count, uint64_t seed)
      : relation("r",
                 Schema({{"id", ValueType::kInt64},
                         {"geom", polygons ? ValueType::kPolygon
                                           : ValueType::kRectangle}}),
                 pool, layout),
        rtree(pool, RTreeSplit::kQuadratic, fanout) {
    RectGenerator gen(Rectangle(0, 0, 100, 100), seed);
    std::vector<std::pair<Rectangle, TupleId>> entries;
    for (int i = 0; i < count; ++i) {
      const Value geom = polygons ? Value(gen.NextPolygon(1, 4, 7))
                                  : Value(gen.NextRect(1, 4));
      entries.emplace_back(
          geom.Mbr(),
          relation.Insert(Tuple({Value(static_cast<int64_t>(i)), geom})));
    }
    if (fanout == 0) {
      rtree.BulkLoadStr(std::move(entries));
    } else {
      for (const auto& [mbr, tid] : entries) rtree.Insert(mbr, tid);
    }
  }

  Relation relation;
  RTree rtree;
};

TEST(PagedMaterializeTest, RTreesMatchTheAccessorWalk) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 64);
  for (const bool polygons : {false, true}) {
    for (const RelationLayout layout :
         {RelationLayout::kHeap, RelationLayout::kClustered}) {
      for (const int fanout : {6, 0}) {
        const IndexedRelation indexed(&pool, polygons, layout, fanout, 400,
                                      31);
        ASSERT_GE(indexed.rtree.height(), 2);
        const std::string label =
            std::string(polygons ? "polygons" : "rectangles") +
            (layout == RelationLayout::kHeap ? " heap" : " clustered") +
            " fanout " + std::to_string(indexed.rtree.max_entries());
        const RTreeGenTree with_relation(&indexed.rtree, &indexed.relation,
                                         1);
        ExpectPagedMaterializeMatchesAccessorWalk(with_relation, label);
        const RTreeGenTree mbrs_only(&indexed.rtree, nullptr, 1);
        ExpectPagedMaterializeMatchesAccessorWalk(mbrs_only,
                                                  label + " no relation");
      }
    }
  }
}

TEST(PagedMaterializeTest, RootOnlyTreesMatchTheAccessorWalk) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 16);
  const RTree empty(&pool, RTreeSplit::kQuadratic, 6);
  const RTreeGenTree adapter(&empty, nullptr, 0);
  ExpectPagedMaterializeMatchesAccessorWalk(adapter, "empty R-tree");
  EXPECT_EQ(exec::FrozenTree::Materialize(adapter).num_nodes(), 1);

  MemoryGenTree single;
  single.AddNode(kInvalidNodeId, Value(Rectangle(0, 0, 1, 1)), 7);
  ExpectPagedMaterializeMatchesAccessorWalk(single, "one-node hierarchy");
}

TEST(PagedMaterializeTest, HierarchiesAndQuadTreesMatchTheAccessorWalk) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 64);
  const Rectangle world(0, 0, 100, 100);
  // Paper Fig. 3: every node, interior ones included, is an application
  // object read from its relation.
  HierarchyOptions options;
  options.height = 3;
  options.fanout = 4;
  const GeneratedHierarchy fig3 =
      GenerateHierarchy(world, options, &pool, RelationLayout::kHeap);
  ExpectPagedMaterializeMatchesAccessorWalk(*fig3.tree, "Fig. 3 hierarchy");

  // Polygon application objects above technical nodes and rectangles,
  // so interior nodes carry ring records.
  MemoryGenTree mixed;
  const NodeId root = mixed.AddNode(kInvalidNodeId, Value(world));
  for (int i = 0; i < 4; ++i) {
    const double x = 25.0 * i;
    const NodeId region = mixed.AddNode(
        root,
        Value(Polygon({Point(x + 12.5, 0), Point(x + 25, 50),
                       Point(x + 12.5, 100), Point(x, 50)})),
        i);
    for (int k = 0; k < 3; ++k) {
      const double y = 40.0 + 5.0 * k;
      mixed.AddNode(region, Value(Rectangle(x + 10, y, x + 15, y + 4)),
                    k == 1 ? kInvalidTupleId : 10 * (i + 1) + k);
    }
  }
  ExpectPagedMaterializeMatchesAccessorWalk(mixed, "mixed hierarchy");

  Relation objects("q",
                   Schema({{"id", ValueType::kInt64},
                           {"geom", ValueType::kRectangle}}),
                   &pool);
  QuadTree quadtree(world, 6);
  RectGenerator gen(world, 17);
  for (int i = 0; i < 200; ++i) {
    const Rectangle mbr = gen.NextRect(1, 8);
    quadtree.Insert(mbr, objects.Insert(Tuple(
                             {Value(static_cast<int64_t>(i)), Value(mbr)})));
  }
  quadtree.AttachRelation(&objects, 1);
  ExpectPagedMaterializeMatchesAccessorWalk(quadtree, "quadtree");
}

}  // namespace
}  // namespace spatialjoin
