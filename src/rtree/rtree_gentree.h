#ifndef SPATIALJOIN_RTREE_RTREE_GENTREE_H_
#define SPATIALJOIN_RTREE_RTREE_GENTREE_H_

#include <vector>

#include "core/gentree.h"
#include "relational/relation.h"
#include "rtree/rtree.h"

namespace spatialjoin {

/// Presents a (paged) R-tree as a GeneralizationTree so that the paper's
/// algorithms SELECT and JOIN run on it unchanged. This realizes the
/// paper's primary use case: the R-tree as an abstract generalization
/// tree whose interior nodes are technical bounding rectangles and whose
/// leaf entries are the application objects (§3.1, Fig. 2).
///
/// Node identity: the adapter's nodes are the *entries* of R-tree pages
/// (plus a synthetic root standing for the root page). Resolving a node's
/// MBR or children reads the R-tree pages through the buffer pool, so
/// index I/O is counted exactly where a real execution pays it. θ-level
/// geometry of a leaf entry is fetched from the backing relation (one
/// more access — the tuple fetch). ReadChildren reads a child page once
/// for all its entries, and decodes only the spatial column of each leaf
/// entry's tuple.
class RTreeGenTree : public GeneralizationTree {
 public:
  /// `relation`/`column` back the leaf entries' exact geometry; pass
  /// nullptr to fall back to the stored MBR (then θ tests degrade to MBR
  /// tests — acceptable when the indexed objects are rectangles).
  RTreeGenTree(const RTree* rtree, const Relation* relation, size_t column);

  NodeId root() const override { return kRootId; }
  int height() const override;
  int HeightOf(NodeId node) const override;
  std::vector<NodeId> Children(NodeId node) const override;
  Value Geometry(NodeId node) const override;
  Rectangle MbrOf(NodeId node) const override;
  bool IsApplicationNode(NodeId node) const override;
  TupleId TupleOf(NodeId node) const override;
  int64_t num_nodes() const override;
  void ReadChildren(NodeId node,
                    std::vector<ChildRecord>* out) const override;

 private:
  static constexpr NodeId kRootId = 0;
  static constexpr int64_t kMaxSlots = 256;

  struct Entry {
    PageId page = kInvalidPageId;  // page holding the entry
    int slot = 0;
  };

  static NodeId Encode(PageId page, int slot) {
    return page * kMaxSlots + slot + 1;
  }
  static Entry Decode(NodeId id);

  // Depth of the entries of a node at R-tree level `level`.
  int EntryHeight(int level) const;
  // The R-tree page holding `node`'s children, or kInvalidPageId when
  // `node` is a data entry (one entry read for a non-root node).
  PageId ChildPage(NodeId node) const;
  // θ-level geometry of an entry (`mbr`, `payload`) on a page whose leaf
  // flag is `on_leaf`.
  Value EntryGeometry(bool on_leaf, const Rectangle& mbr,
                      int64_t payload) const;

  const RTree* rtree_;
  const Relation* relation_;
  size_t column_;
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_RTREE_RTREE_GENTREE_H_
