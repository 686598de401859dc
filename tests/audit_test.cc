#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "audit/audit_hook.h"
#include "audit/audit_report.h"
#include "audit/btree_audit.h"
#include "audit/bufferpool_audit.h"
#include "audit/gentree_audit.h"
#include "audit/heap_audit.h"
#include "audit/rtree_audit.h"
#include "audit/theta_audit.h"
#include "btree/bplus_tree.h"
#include "common/random.h"
#include "core/memory_gentree.h"
#include "core/theta_ops.h"
#include "geometry/rectangle.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "relational/value.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : disk_(2000), pool_(&disk_, 256) {}
  DiskManager disk_;
  BufferPool pool_;
};

// ---------------------------------------------------------------------------
// AuditReport plumbing.
// ---------------------------------------------------------------------------

TEST(AuditReportTest, CountsAndSeverities) {
  audit::AuditReport report("unit");
  EXPECT_TRUE(report.ok());
  report.CountCheck(3);
  report.AddError("root/entry[1]", "broken");
  report.AddWarning("root", "untidy");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.checks_run(), 3);
  EXPECT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.warning_count(), 1);
  std::string text = report.ToString();
  EXPECT_NE(text.find("error at root/entry[1]: broken"), std::string::npos);
  EXPECT_NE(text.find("warning at root: untidy"), std::string::npos);
}

TEST(AuditReportTest, MergePrefixesPaths) {
  audit::AuditReport inner("page");
  inner.CountCheck();
  inner.AddError("slot[2]", "overrun");
  audit::AuditReport outer("file");
  outer.Merge(inner, "page[7]/");
  ASSERT_EQ(outer.violations().size(), 1u);
  EXPECT_EQ(outer.violations()[0].path, "page[7]/slot[2]");
  EXPECT_EQ(outer.checks_run(), 1);
}

TEST(AuditReportTest, FinishPublishesCounterFamily) {
  MetricsRegistry::Global().ResetAll();
  audit::AuditReport report("unit");
  report.AddError("root", "x");
  report.Finish();
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("audit.runs"), 1);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("audit.violations"), 1);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("audit.unit.runs"), 1);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("audit.unit.violations"),
            1);
}

TEST(AuditReportTest, JsonShape) {
  audit::AuditReport report("unit");
  report.CountCheck();
  report.AddError("root", "bad \"quote\"");
  std::string json = report.ToJson();
  const JsonDocument doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_EQ(doc.root.StringAt("subject"), "unit");
  EXPECT_EQ(doc.root.IntAt("checks_run", -1), 1);
  EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// R-tree auditor.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, RTreeEmptyTreeIsClean) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  audit::AuditReport report = audit::AuditRTree(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run(), 0);
}

TEST_F(AuditTest, RTreeSingleEntryIsClean) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  tree.Insert(Rectangle(1, 1, 2, 2), 42);
  audit::AuditReport report = audit::AuditRTree(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(AuditTest, RTreeBulkAndIncrementalAreClean) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 11);
  for (int i = 0; i < 300; ++i) {
    tree.Insert(gen.NextRect(1, 30), i);
  }
  audit::AuditReport report = audit::AuditRTree(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(tree.height(), 2);
}

TEST_F(AuditTest, RTreeCorruptedInteriorMbrIsDetectedWithPath) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 13);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(gen.NextRect(1, 30), i);
  }
  ASSERT_GE(tree.height(), 2);
  // Shrink the root's first entry to a sliver: the child subtree is no
  // longer contained in its parent entry — the PART-OF break that makes
  // Θ-pruning unsound.
  tree.CorruptEntryMbrForTest(tree.root_page(), 0,
                              Rectangle(0, 0, 0.5, 0.5));
  audit::AuditReport report = audit::AuditRTree(tree);
  ASSERT_FALSE(report.ok());
  EXPECT_GT(report.error_count(), 0);
  bool found_path = false;
  for (const audit::Violation& v : report.violations()) {
    if (v.path.find("root/child[0]") != std::string::npos &&
        v.message.find("PART-OF") != std::string::npos) {
      found_path = true;
    }
  }
  EXPECT_TRUE(found_path) << report.ToString();
}

TEST_F(AuditTest, RTreeLeafEntryEscapingParentIsDetected) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 19);
  for (int i = 0; i < 200; ++i) {
    tree.Insert(gen.NextRect(1, 30), i);
  }
  ASSERT_GE(tree.height(), 2);
  // Opposite direction from the test above: leave the parent entry alone
  // and move a *leaf* entry outside the world, escaping every ancestor.
  RTree::NodeView root = tree.ReadNode(tree.root_page());
  ASSERT_FALSE(root.is_leaf);
  PageId child = root.payloads[0];
  tree.CorruptEntryMbrForTest(child, 0, Rectangle(5000, 5000, 5001, 5001));
  audit::AuditReport report = audit::AuditRTree(tree);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const audit::Violation& v : report.violations()) {
    if (v.path.find("root/child[0]") != std::string::npos &&
        v.path.find("entry[0]") != std::string::npos &&
        v.message.find("PART-OF") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST_F(AuditTest, RTreeUntightParentMbrIsAWarningOnly) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 4);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 17);
  for (int i = 0; i < 40; ++i) {
    tree.Insert(gen.NextRect(1, 20), i);
  }
  ASSERT_GE(tree.height(), 2);
  // Inflate the root's first entry: still contains the child, not tight.
  tree.CorruptEntryMbrForTest(tree.root_page(), 0,
                              Rectangle(-10, -10, 2000, 2000));
  audit::AuditReport report = audit::AuditRTree(tree);
  EXPECT_EQ(report.error_count(), 0) << report.ToString();
  EXPECT_GT(report.warning_count(), 0);
}

// ---------------------------------------------------------------------------
// B⁺-tree auditor.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, BPlusTreeEmptyAndSingleLeafAreClean) {
  BPlusTree empty(&pool_, 4, 4);
  audit::AuditReport report = audit::AuditBPlusTree(empty);
  EXPECT_TRUE(report.ok()) << report.ToString();

  BPlusTree one(&pool_, 4, 4);
  one.Insert(7, 70);
  report = audit::AuditBPlusTree(one);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(AuditTest, BPlusTreeWithDuplicatesIsClean) {
  BPlusTree tree(&pool_, 4, 4);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    tree.Insert(rng.NextUint64(40), static_cast<uint64_t>(i));
  }
  ASSERT_GE(tree.height(), 2);
  audit::AuditReport report = audit::AuditBPlusTree(tree);
  EXPECT_EQ(report.error_count(), 0) << report.ToString();
}

TEST_F(AuditTest, BPlusTreeCorruptedLeafKeyIsDetectedWithPath) {
  BPlusTree tree(&pool_, 4, 4);
  for (uint64_t k = 0; k < 64; ++k) {
    tree.Insert(k, k * 10);
  }
  ASSERT_GE(tree.height(), 2);
  // Find the leftmost leaf and wrench its first key far right: it now
  // violates both in-node order and the root separator bounds.
  PageId pid = tree.root_page();
  for (;;) {
    BPlusTree::NodeView node = tree.ReadNode(pid);
    if (node.is_leaf) break;
    pid = node.children.front();
  }
  tree.CorruptKeyForTest(pid, 0, 9999);
  audit::AuditReport report = audit::AuditBPlusTree(tree);
  ASSERT_FALSE(report.ok());
  bool found_path = false;
  for (const audit::Violation& v : report.violations()) {
    if (v.path.find("key[0]") != std::string::npos &&
        v.message.find("separator bounds") != std::string::npos) {
      found_path = true;
    }
  }
  EXPECT_TRUE(found_path) << report.ToString();
}

TEST_F(AuditTest, BPlusTreeLazyDeletionUnderflowIsAWarningOnly) {
  BPlusTree tree(&pool_, 4, 4);
  for (uint64_t k = 0; k < 32; ++k) {
    tree.Insert(k, k);
  }
  // Lazy deletion may empty leaves without rebalancing; the audit must
  // not call that corruption.
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(tree.Delete(k, k));
  }
  audit::AuditReport report = audit::AuditBPlusTree(tree);
  EXPECT_EQ(report.error_count(), 0) << report.ToString();
}

// ---------------------------------------------------------------------------
// Heap file / slotted page auditor.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, HeapFileInsertsAndDeletesAreClean) {
  HeapFile file(&pool_);
  std::vector<RecordId> rids;
  for (int i = 0; i < 200; ++i) {
    rids.push_back(file.Insert(std::string(static_cast<size_t>(i % 97), 'x')));
  }
  for (size_t i = 0; i < rids.size(); i += 3) {
    ASSERT_TRUE(file.Delete(rids[i]));
  }
  audit::AuditReport report = audit::AuditHeapFile(file);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(AuditTest, SlottedPageCorruptedSlotIsDetected) {
  HeapFile file(&pool_);
  RecordId rid = file.Insert("hello slotted world");
  // Point the slot's offset into the slot directory itself.
  Page* page = pool_.GetMutablePage(rid.page_id);
  uint16_t bad_offset = 2;
  std::memcpy(page->bytes() + 4 + 4 * rid.slot, &bad_offset,
              sizeof(bad_offset));
  audit::AuditReport report = audit::AuditHeapFile(file);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("slot[0]"), std::string::npos)
      << report.ToString();
}

TEST_F(AuditTest, SlottedPageCorruptedFreeEndIsDetected) {
  HeapFile file(&pool_);
  RecordId rid = file.Insert("record");
  Page* page = pool_.GetMutablePage(rid.page_id);
  uint16_t bad_free_end = 1;  // inside the header/slot directory
  std::memcpy(page->bytes() + 2, &bad_free_end, sizeof(bad_free_end));
  audit::AuditReport report = audit::AuditHeapFile(file);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("free_end"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Buffer pool auditor.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, BufferPoolUnderPressureIsClean) {
  DiskManager disk(512);
  BufferPool small(&disk, 4);
  std::vector<PageId> pages;
  for (int i = 0; i < 16; ++i) {
    pages.push_back(small.NewPage());
  }
  for (int round = 0; round < 3; ++round) {
    for (PageId pid : pages) {
      small.GetPage(pid);
    }
  }
  EXPECT_GT(small.stats().evictions, 0);
  audit::AuditReport report = audit::AuditBufferPool(small);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// Generalization-tree auditor.
// ---------------------------------------------------------------------------

TEST(GenTreeAuditTest, SingleNodeAndFanout1ChainAreClean) {
  MemoryGenTree single;
  single.AddNode(kInvalidNodeId, Value(Rectangle(0, 0, 10, 10)));
  audit::AuditReport report = audit::AuditGenTree(single);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Degenerate fanout-1 chain: root ⊇ mid ⊇ leaf, one child each.
  MemoryGenTree chain;
  NodeId root = chain.AddNode(kInvalidNodeId, Value(Rectangle(0, 0, 10, 10)));
  NodeId mid = chain.AddNode(root, Value(Rectangle(1, 1, 9, 9)));
  chain.AddNode(mid, Value(Rectangle(2, 2, 8, 8)), TupleId{7});
  report = audit::AuditGenTree(chain);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(GenTreeAuditTest, RTreeAdapterIsClean) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 128);
  RTree rtree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 23);
  for (int i = 0; i < 120; ++i) {
    rtree.Insert(gen.NextRect(1, 25), i);
  }
  RTreeGenTree adapter(&rtree, nullptr, 0);
  audit::AuditReport report = audit::AuditGenTree(adapter);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(GenTreeAuditTest, CorruptedRTreeSurfacesInAdapterAudit) {
  DiskManager disk(2000);
  BufferPool pool(&disk, 128);
  RTree rtree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen(Rectangle(0, 0, 1000, 1000), 29);
  for (int i = 0; i < 120; ++i) {
    rtree.Insert(gen.NextRect(1, 25), i);
  }
  ASSERT_GE(rtree.height(), 2);
  rtree.CorruptEntryMbrForTest(rtree.root_page(), 0, Rectangle(0, 0, 1, 1));
  RTreeGenTree adapter(&rtree, nullptr, 0);
  audit::AuditReport report = audit::AuditGenTree(adapter);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("PART-OF"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Θ-soundness checker (small samples here; the 10⁵-pair acceptance run
// lives in theta_soundness_test.cc).
// ---------------------------------------------------------------------------

TEST(ThetaAuditTest, Table1OperatorsSoundOnSmallSample) {
  audit::ThetaSoundnessOptions options;
  options.pairs = 3000;
  audit::AuditReport report = audit::AuditTable1Operators(options);
  EXPECT_EQ(report.error_count(), 0) << report.ToString();
}

// A Θ that ignores its θ: every θ-match must be reported as a witness.
class BrokenUpperOp : public ThetaOperator {
 public:
  std::string name() const override { return "broken_upper"; }
  bool Theta(const Value& a, const Value& b) const override {
    return GeometriesOverlap(a, b);
  }
  bool ThetaUpper(const Rectangle&, const Rectangle&) const override {
    return false;  // prunes everything, including true matches
  }
};

TEST(ThetaAuditTest, UnsoundOperatorProducesWitnesses) {
  BrokenUpperOp broken;
  audit::ThetaSoundnessOptions options;
  options.pairs = 2000;
  audit::AuditReport report = audit::AuditThetaSoundness(broken, options);
  ASSERT_FALSE(report.ok());
  EXPECT_GT(report.error_count(), 0);
  EXPECT_NE(report.ToString().find("θ holds but Θ prunes"),
            std::string::npos);
  EXPECT_NE(report.ToString().find("pair "), std::string::npos);
}

// ---------------------------------------------------------------------------
// SJ_AUDIT_LEVEL hook.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, HookIsNoOpWhenOff) {
  audit::SetAuditLevel(audit::AuditLevel::kOff);
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  for (int i = 0; i < 50; ++i) {
    tree.Insert(Rectangle(i, i, i + 1, i + 1), i);
  }
  tree.CorruptEntryMbrForTest(tree.root_page(), 0, Rectangle(0, 0, 0.1, 0.1));
  audit::MaybeAudit(tree);  // must not abort
  audit::SetAuditLevel(audit::AuditLevel::kOff);
}

TEST_F(AuditTest, HookAbortsOnCorruptionWhenParanoid) {
  RTree tree(&pool_, RTreeSplit::kQuadratic, 8);
  for (int i = 0; i < 50; ++i) {
    tree.Insert(Rectangle(i, i, i + 1, i + 1), i);
  }
  ASSERT_GE(tree.height(), 2);
  tree.CorruptEntryMbrForTest(tree.root_page(), 0, Rectangle(0, 0, 0.1, 0.1));
  audit::SetAuditLevel(audit::AuditLevel::kParanoid);
  EXPECT_DEATH(audit::MaybeAudit(tree), "PART-OF");
  audit::SetAuditLevel(audit::AuditLevel::kOff);
}

TEST_F(AuditTest, BasicLevelSkipsParanoidHooks) {
  audit::SetAuditLevel(audit::AuditLevel::kBasic);
  EXPECT_TRUE(audit::AuditEnabled(audit::AuditLevel::kBasic));
  EXPECT_FALSE(audit::AuditEnabled(audit::AuditLevel::kParanoid));
  audit::SetAuditLevel(audit::AuditLevel::kOff);
}

}  // namespace
}  // namespace spatialjoin
