#include "rtree/rtree_gentree.h"

#include "common/check.h"

namespace spatialjoin {

RTreeGenTree::RTreeGenTree(const RTree* rtree, const Relation* relation,
                           size_t column)
    : rtree_(rtree), relation_(relation), column_(column) {
  SJ_CHECK(rtree != nullptr);
  SJ_CHECK_MSG(rtree->max_entries() <= kMaxSlots,
               "node fan-out exceeds the adapter's slot encoding");
  if (relation_ != nullptr) {
    SJ_CHECK_LT(column, relation_->schema().num_columns());
    SJ_CHECK(relation_->schema().IsSpatial(column));
  }
}

RTreeGenTree::Entry RTreeGenTree::Decode(NodeId id) {
  SJ_CHECK_GT(id, 0);
  int64_t v = id - 1;
  Entry entry;
  entry.page = v / kMaxSlots;
  entry.slot = static_cast<int>(v % kMaxSlots);
  return entry;
}

int RTreeGenTree::height() const {
  // R-tree node levels run root=height-1 … leaf=0; data entries hang one
  // below the leaves, so the generalization tree is one level deeper.
  return rtree_->height();
}

int RTreeGenTree::HeightOf(NodeId node) const {
  if (node == kRootId) return 0;
  Entry e = Decode(node);
  // An entry of a node at R-tree level L sits at depth root_level - L + 1.
  return (rtree_->height() - 1) - rtree_->ReadHeader(e.page).level + 1;
}

std::vector<NodeId> RTreeGenTree::Children(NodeId node) const {
  PageId page_to_expand;
  if (node == kRootId) {
    page_to_expand = rtree_->root_page();
  } else {
    Entry e = Decode(node);
    const RTree::EntryView entry = rtree_->ReadEntry(e.page, e.slot);
    if (entry.node.is_leaf) return {};  // data entries are the leaves
    page_to_expand = entry.payload;
  }
  const int count = rtree_->ReadHeader(page_to_expand).count;
  std::vector<NodeId> children;
  children.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    children.push_back(Encode(page_to_expand, i));
  }
  return children;
}

Value RTreeGenTree::Geometry(NodeId node) const {
  if (node == kRootId) return Value(rtree_->RootMbr());
  Entry e = Decode(node);
  const RTree::EntryView entry = rtree_->ReadEntry(e.page, e.slot);
  if (entry.node.is_leaf && relation_ != nullptr) {
    Tuple t = relation_->Read(entry.payload);
    return t.value(column_);
  }
  return Value(entry.mbr);
}

Rectangle RTreeGenTree::MbrOf(NodeId node) const {
  if (node == kRootId) return rtree_->RootMbr();
  Entry e = Decode(node);
  return rtree_->ReadEntry(e.page, e.slot).mbr;
}

bool RTreeGenTree::IsApplicationNode(NodeId node) const {
  if (node == kRootId) return false;
  Entry e = Decode(node);
  return rtree_->ReadHeader(e.page).is_leaf;
}

TupleId RTreeGenTree::TupleOf(NodeId node) const {
  if (node == kRootId) return kInvalidTupleId;
  Entry e = Decode(node);
  const RTree::EntryView entry = rtree_->ReadEntry(e.page, e.slot);
  return entry.node.is_leaf ? entry.payload : kInvalidTupleId;
}

int64_t RTreeGenTree::num_nodes() const {
  // Synthetic root + one node per entry ≈ data entries + interior entries.
  return 1 + rtree_->num_entries() + (rtree_->num_nodes() - 1);
}

}  // namespace spatialjoin
