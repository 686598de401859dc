#ifndef SPATIALJOIN_RTREE_RTREE_H_
#define SPATIALJOIN_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "geometry/rectangle.h"
#include "relational/tuple.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace spatialjoin {

/// Node-splitting heuristic: Guttman's linear-cost and quadratic-cost
/// algorithms [Gutt84 §3.5], plus the R*-tree topological split
/// (Beckmann et al. 1990: choose the split axis by minimum margin sum,
/// then the distribution by minimum overlap). Quadratic and R* produce
/// tighter nodes at higher insertion cost; the ablation bench quantifies
/// the differences.
enum class RTreeSplit {
  kLinear,
  kQuadratic,
  kRStar,
};

/// A disk-resident R-tree (Guttman 1984) over rectangles, indexing tuples
/// of one relation by the MBR of a spatial column. This is the paper's
/// prototypical *abstract* generalization tree (Fig. 2): interior nodes
/// are "technical entities of no interest to the user", nested by
/// containment.
///
/// Pages hold up to `max_entries` entries of 40 bytes (MBR + payload);
/// underflowing nodes (< min_entries) are dissolved on deletion and their
/// entries reinserted, per Guttman's CondenseTree.
class RTree {
 public:
  /// `max_entries` of 0 derives fan-out from the page size.
  RTree(BufferPool* pool, RTreeSplit split = RTreeSplit::kQuadratic,
        int max_entries = 0);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Inserts a data entry (leaf rectangle + tuple id).
  void Insert(const Rectangle& mbr, TupleId tid);

  /// Bulk-loads the tree bottom-up with Sort-Tile-Recursive packing
  /// (Leutenegger et al.): entries are tiled into near-square slabs and
  /// packed `fill_factor`-full, giving tighter nodes and fewer pages
  /// than repeated insertion. Requires an empty tree. The entry order
  /// produced (x-slabs, y within a slab) is also a natural clustering
  /// order for the underlying relation.
  void BulkLoadStr(std::vector<std::pair<Rectangle, TupleId>> entries,
                   double fill_factor = 1.0);

  /// Removes the entry with exactly this (mbr, tid); false if absent.
  bool Delete(const Rectangle& mbr, TupleId tid);

  /// Calls `fn(mbr, tid)` for every data entry whose MBR overlaps
  /// `window` (Guttman's Search).
  void Search(const Rectangle& window,
              const std::function<void(const Rectangle&, TupleId)>& fn) const;

  /// All data entries intersecting `window`.
  std::vector<TupleId> SearchTids(const Rectangle& window) const;

  /// MBR of the whole tree (empty for an empty tree).
  Rectangle RootMbr() const;

  int64_t num_entries() const { return num_entries_; }
  /// Levels of nodes (1 = root is a leaf). Data entries sit below level-0
  /// leaves conceptually.
  int height() const { return height_; }
  int64_t num_nodes() const { return num_nodes_; }
  int max_entries() const { return max_entries_; }
  int min_entries() const { return min_entries_; }
  PageId root_page() const { return root_; }
  BufferPool* pool() const { return pool_; }

  /// Decoded view of one node, for the GeneralizationTree adapter and
  /// for structural tests. Entry i: child page (interior) or tuple id
  /// (leaf) with its MBR.
  struct NodeView {
    bool is_leaf = true;
    int level = 0;  // 0 = leaf; root has the highest level
    std::vector<Rectangle> mbrs;
    std::vector<int64_t> payloads;  // PageId (interior) or TupleId (leaf)
  };

  /// Reads node `pid` through the buffer pool (counts I/O).
  NodeView ReadNode(PageId pid) const;

  /// What ReadHeader and ReadEntry decode: a node's header, and one of
  /// its entries.
  struct NodeHeader {
    bool is_leaf = true;
    int level = 0;  // 0 = leaf; root has the highest level
    int count = 0;  // entries on the node
  };
  struct EntryView {
    NodeHeader node;
    Rectangle mbr;
    int64_t payload = 0;  // PageId (interior) or TupleId (leaf)
  };

  /// Node `pid`'s header, decoded from one page access (the same I/O as
  /// ReadNode) without decoding its entries.
  NodeHeader ReadHeader(PageId pid) const;

  /// Node `pid`'s header and entry `slot` (< its count), decoded from one
  /// page access (the same I/O as ReadNode) without touching the other
  /// entries.
  EntryView ReadEntry(PageId pid, int slot) const;

  /// Verifies R-tree invariants (containment, fan-out bounds, level
  /// consistency); aborts via SJ_CHECK on violation. For tests. The
  /// audit subsystem's AuditRTree is the non-aborting superset that
  /// returns a machine-readable report instead.
  void CheckInvariants() const;

  /// Test-only hook: overwrites entry `entry_idx` of the node on `pid`
  /// with `mbr`, bypassing all invariant maintenance. Exists so auditor
  /// tests can manufacture PART-OF violations; never call it elsewhere.
  void CorruptEntryMbrForTest(PageId pid, size_t entry_idx,
                              const Rectangle& mbr);

 private:
  struct Node;  // mutable in-core form, defined in the .cc

  Node LoadNode(PageId pid) const;
  void StoreNode(PageId pid, const Node& node);
  PageId NewNodePage();

  // Guttman I3/CT3-style descent: picks the child needing least
  // enlargement (ties by smaller area).
  int ChooseSubtree(const Node& node, const Rectangle& mbr) const;

  // Inserts `entry_mbr`/`payload` at level `target_level` below `pid`.
  // Returns the new sibling page on split.
  struct SplitOutcome {
    bool split = false;
    Rectangle left_mbr;
    Rectangle right_mbr;
    PageId right_page = kInvalidPageId;
  };
  SplitOutcome InsertAt(PageId pid, int node_level,
                        const Rectangle& entry_mbr, int64_t payload,
                        int target_level);

  // Splits an overflowing in-core node; returns entry partition.
  void SplitNode(const std::vector<Rectangle>& mbrs,
                 const std::vector<int64_t>& payloads,
                 std::vector<int>* left_idx, std::vector<int>* right_idx)
      const;

  Rectangle NodeMbr(const Node& node) const;

  BufferPool* pool_;
  RTreeSplit split_;
  int max_entries_;
  int min_entries_;
  PageId root_;
  int height_ = 1;
  int64_t num_entries_ = 0;
  int64_t num_nodes_ = 0;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_RTREE_RTREE_H_
