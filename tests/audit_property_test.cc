#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/audit_hook.h"
#include "audit/exec_audit.h"
#include "btree/bplus_tree.h"
#include "common/random.h"
#include "core/memory_gentree.h"
#include "exec/frozen_tree.h"
#include "geometry/polygon.h"
#include "geometry/rectangle.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

// Randomized property harness (ISSUE: audit subsystem): drive each index
// through a seeded insert/delete/query sequence against a shadow model,
// with the paranoid audit hook enabled so every mutation is followed by a
// full structural audit. Any invariant the mutation path breaks aborts
// the test at the op that broke it, not at some later symptom.

namespace spatialjoin {
namespace {

class ParanoidAuditScope {
 public:
  ParanoidAuditScope() { audit::SetAuditLevel(audit::AuditLevel::kParanoid); }
  ~ParanoidAuditScope() { audit::SetAuditLevel(audit::AuditLevel::kOff); }
};

// ---------------------------------------------------------------------------
// R-tree: all three split heuristics.
// ---------------------------------------------------------------------------

class RTreePropertyTest : public ::testing::TestWithParam<RTreeSplit> {};

TEST_P(RTreePropertyTest, RandomOpsKeepInvariantsAndMatchShadow) {
  ParanoidAuditScope paranoid;
  DiskManager disk(4000);
  BufferPool pool(&disk, 256);
  RTree tree(&pool, GetParam(), 8);
  Rng rng(2026);
  Rectangle world(0, 0, 1000, 1000);

  std::vector<std::pair<Rectangle, TupleId>> shadow;
  TupleId next_tid = 0;

  auto random_rect = [&]() {
    double x = rng.NextDouble(0, 950);
    double y = rng.NextDouble(0, 950);
    return Rectangle(x, y, x + rng.NextDouble(1, 50),
                     y + rng.NextDouble(1, 50));
  };

  for (int op = 0; op < 250; ++op) {
    uint64_t dice = rng.NextUint64(10);
    if (dice < 6 || shadow.empty()) {
      Rectangle r = random_rect();
      tree.Insert(r, next_tid);
      shadow.emplace_back(r, next_tid);
      ++next_tid;
    } else if (dice < 8) {
      size_t victim = rng.NextUint64(shadow.size());
      ASSERT_TRUE(tree.Delete(shadow[victim].first, shadow[victim].second))
          << "op " << op << ": delete of a live entry failed";
      shadow.erase(shadow.begin() + static_cast<ptrdiff_t>(victim));
    } else {
      Rectangle window = random_rect();
      std::vector<TupleId> got = tree.SearchTids(window);
      std::vector<TupleId> want;
      for (const auto& [r, tid] : shadow) {
        if (r.Overlaps(window)) want.push_back(tid);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "op " << op << ": search disagrees with shadow";
    }
    audit::MaybeAudit(tree);  // paranoid: full audit after every op
    ASSERT_EQ(tree.num_entries(), static_cast<int64_t>(shadow.size()));
  }

  // The adapter view must satisfy the generalization-tree invariants too.
  RTreeGenTree adapter(&tree, nullptr, 0);
  audit::MaybeAudit(adapter);
}

INSTANTIATE_TEST_SUITE_P(AllSplits, RTreePropertyTest,
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

// ---------------------------------------------------------------------------
// B⁺-tree: duplicate-heavy key range so splits cut through equal-key runs.
// ---------------------------------------------------------------------------

TEST(BPlusTreePropertyTest, RandomOpsKeepInvariantsAndMatchShadow) {
  ParanoidAuditScope paranoid;
  DiskManager disk(4000);
  BufferPool pool(&disk, 256);
  BPlusTree tree(&pool, 4, 4);
  Rng rng(77);

  std::multimap<uint64_t, uint64_t> shadow;
  uint64_t next_value = 0;

  for (int op = 0; op < 400; ++op) {
    uint64_t dice = rng.NextUint64(10);
    if (dice < 6 || shadow.empty()) {
      uint64_t key = rng.NextUint64(25);  // tight range → many duplicates
      tree.Insert(key, next_value);
      shadow.emplace(key, next_value);
      ++next_value;
    } else if (dice < 8) {
      size_t victim = rng.NextUint64(shadow.size());
      auto it = shadow.begin();
      std::advance(it, static_cast<ptrdiff_t>(victim));
      ASSERT_TRUE(tree.Delete(it->first, it->second))
          << "op " << op << ": delete of a live entry failed";
      shadow.erase(it);
    } else {
      uint64_t key = rng.NextUint64(25);
      std::vector<uint64_t> got = tree.Lookup(key);
      std::vector<uint64_t> want;
      auto [lo, hi] = shadow.equal_range(key);
      for (auto it = lo; it != hi; ++it) want.push_back(it->second);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "op " << op << ": lookup(" << key
                           << ") disagrees with shadow";
    }
    audit::MaybeAudit(tree);
    ASSERT_EQ(tree.num_entries(), static_cast<int64_t>(shadow.size()));
  }

  // Full ordered scan must equal the shadow, proving the leaf chain covers
  // every entry exactly once in key order.
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  tree.ScanAll([&](uint64_t k, uint64_t v) { scanned.emplace_back(k, v); });
  ASSERT_EQ(scanned.size(), shadow.size());
  size_t i = 0;
  uint64_t prev_key = 0;
  for (const auto& [k, v] : scanned) {
    EXPECT_GE(k, prev_key) << "scan out of order at position " << i;
    prev_key = k;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Heap file: slotted pages under mixed record sizes and deletions.
// ---------------------------------------------------------------------------

TEST(HeapFilePropertyTest, RandomOpsKeepInvariantsAndMatchShadow) {
  ParanoidAuditScope paranoid;
  DiskManager disk(4000);
  BufferPool pool(&disk, 64);
  HeapFile file(&pool);
  Rng rng(99);

  std::map<RecordId, std::string> shadow;

  for (int op = 0; op < 300; ++op) {
    uint64_t dice = rng.NextUint64(10);
    if (dice < 6 || shadow.empty()) {
      size_t len = rng.NextUint64(200) + 1;
      std::string record(len, static_cast<char>('a' + op % 26));
      RecordId rid = file.Insert(record);
      ASSERT_EQ(shadow.count(rid), 0u) << "op " << op << ": rid reused";
      shadow.emplace(rid, std::move(record));
    } else if (dice < 8) {
      size_t victim = rng.NextUint64(shadow.size());
      auto it = shadow.begin();
      std::advance(it, static_cast<ptrdiff_t>(victim));
      ASSERT_TRUE(file.Delete(it->first))
          << "op " << op << ": delete of a live record failed";
      shadow.erase(it);
    } else {
      for (const auto& [rid, want] : shadow) {
        const std::optional<std::string_view> got = file.View(rid);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(*got, want);
      }
    }
    audit::MaybeAudit(file);
    audit::MaybeAudit(pool);
    ASSERT_EQ(file.num_records(), static_cast<int64_t>(shadow.size()));
  }

  // Scan must visit exactly the live records.
  std::map<RecordId, std::string> scanned;
  file.Scan([&](const RecordId& rid, std::string_view bytes) {
    scanned.emplace(rid, std::string(bytes));
  });
  ASSERT_EQ(scanned, shadow);
}

// ---------------------------------------------------------------------------
// FrozenTree: the ring approximations Materialize builds for the multi-step
// refine, over random polygon hierarchies.
// ---------------------------------------------------------------------------

// A random ring inside `cell`: a star about the cell's centre (convex or
// deeply concave), a self-crossing ring of random vertices, a ring with
// repeated vertices, or a zero-area ring of collinear vertices.
Polygon RandomRingIn(Rng* rng, const Rectangle& cell) {
  const Point c = cell.Center();
  const double reach = std::min(cell.width(), cell.height()) / 2;
  std::vector<Point> ring;
  switch (rng->NextUint64(4)) {
    case 0: {  // star, radii spanning up to 8x
      const int n = 3 + static_cast<int>(rng->NextUint64(22));
      for (int i = 0; i < n; ++i) {
        const double angle = 2 * M_PI * i / n;
        const double r = reach * rng->NextDouble(0.125, 1.0);
        ring.emplace_back(c.x + r * std::cos(angle), c.y + r * std::sin(angle));
      }
      break;
    }
    case 1: {  // random vertices: self-crossing as often as not
      const int n = 3 + static_cast<int>(rng->NextUint64(8));
      for (int i = 0; i < n; ++i) {
        ring.emplace_back(rng->NextDouble(cell.min_x(), cell.max_x()),
                          rng->NextDouble(cell.min_y(), cell.max_y()));
      }
      break;
    }
    case 2: {  // a square with every vertex doubled
      for (const Point& corner :
           {Point(c.x - reach, c.y - reach), Point(c.x + reach, c.y - reach),
            Point(c.x + reach, c.y + reach), Point(c.x - reach, c.y + reach)}) {
        ring.push_back(corner);
        ring.push_back(corner);
      }
      break;
    }
    default: {  // collinear: zero area
      for (int i = 0; i < 3; ++i) {
        const double t = rng->NextDouble(-1, 1) * reach * 0.7;
        ring.emplace_back(c.x + t, c.y + t);
      }
      break;
    }
  }
  return Polygon(std::move(ring));
}

TEST(FrozenTreePropertyTest, RandomPolygonTreesCarrySoundRecords) {
  ParanoidAuditScope paranoid;
  Rng rng(1994);
  int64_t records = 0;
  int64_t disks = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // A hierarchy (paper Fig. 3) whose nodes hold a random ring, or a
    // rectangle, inside a random sub-cell of their parent's MBR; every
    // third one is a technical node rather than an application object.
    MemoryGenTree tree;
    TupleId next_tuple = 0;
    std::function<void(NodeId, const Rectangle&, int)> grow =
        [&](NodeId parent, const Rectangle& cell, int depth) {
          const int64_t kids = depth < 3 ? 1 + rng.NextInt(0, 4) : 0;
          for (int64_t k = 0; k < kids; ++k) {
            const double w = cell.width() * rng.NextDouble(0.2, 0.8);
            const double h = cell.height() * rng.NextDouble(0.2, 0.8);
            const double x = rng.NextDouble(cell.min_x(), cell.max_x() - w);
            const double y = rng.NextDouble(cell.min_y(), cell.max_y() - h);
            const Rectangle sub(x, y, x + w, y + h);
            const Value geometry = rng.NextUint64(5) == 0
                                       ? Value(sub)
                                       : Value(RandomRingIn(&rng, sub));
            const TupleId tuple =
                rng.NextUint64(3) == 0 ? kInvalidTupleId : next_tuple++;
            grow(tree.AddNode(parent, geometry, tuple), geometry.Mbr(),
                 depth + 1);
          }
        };
    const Rectangle world(0, 0, 1000, 1000);
    grow(tree.AddNode(kInvalidNodeId, Value(world)), world, 0);
    const exec::FrozenTree frozen = exec::FrozenTree::Materialize(tree);
    audit::MaybeAudit(frozen);  // paranoid: aborts on an unsound record
    const audit::AuditReport report = audit::AuditFrozenTree(frozen);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GE(report.checks_run(), frozen.num_nodes());
    for (NodeId node = 0; node < frozen.num_nodes(); ++node) {
      if (const RingApprox* approx = frozen.ApproxAt(node)) {
        ++records;
        disks += approx->radius > 0 ? 1 : 0;
      }
    }
  }
  // Both kinds of record were audited: with a disk and without one.
  EXPECT_GT(disks, 20);
  EXPECT_GT(records - disks, 20);
}

}  // namespace
}  // namespace spatialjoin
