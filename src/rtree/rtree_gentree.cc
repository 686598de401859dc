#include "rtree/rtree_gentree.h"

#include "common/analysis_annotations.h"
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

int RTreeGenTree::EntryHeight(int level) const {
  // An entry of a node at R-tree level L sits at depth root_level - L + 1.
  return (rtree_->height() - 1) - level + 1;
}

int RTreeGenTree::HeightOf(NodeId node) const {
  if (node == kRootId) return 0;
  Entry e = Decode(node);
  return EntryHeight(rtree_->ReadHeader(e.page).level);
}

PageId RTreeGenTree::ChildPage(NodeId node) const {
  if (node == kRootId) return rtree_->root_page();
  Entry e = Decode(node);
  const RTree::EntryView entry = rtree_->ReadEntry(e.page, e.slot);
  // Data entries are the leaves.
  return entry.node.is_leaf ? kInvalidPageId : entry.payload;
}

Value RTreeGenTree::EntryGeometry(bool on_leaf, const Rectangle& mbr,
                                  int64_t payload) const {
  if (on_leaf && relation_ != nullptr) {
    return relation_->ReadValue(payload, column_);
  }
  return Value(mbr);
}

std::vector<NodeId> RTreeGenTree::Children(NodeId node) const {
  const PageId page = ChildPage(node);
  if (page == kInvalidPageId) return {};
  const int count = rtree_->ReadHeader(page).count;
  std::vector<NodeId> children;
  children.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    children.push_back(Encode(page, i));
  }
  return children;
}

void RTreeGenTree::ReadChildren(NodeId node,
                                std::vector<ChildRecord>* out) const {
  const PageId page = ChildPage(node);
  if (page == kInvalidPageId) {
    out->clear();
    return;
  }
  // One page access for every entry; the leaf geometries' tuple reads
  // follow it, so the decoded view must not point into the frame.
  const RTree::NodeView view = rtree_->ReadNode(page);
  const int height = EntryHeight(view.level);
  // Every field of every record is set below, so records left from the
  // previous call are reused rather than rebuilt.
  out->resize(view.mbrs.size());
  for (size_t i = 0; i < view.mbrs.size(); ++i) {
    SJ_BOUNDED_WORK;  // one node page's entries (node fanout)
    ChildRecord& child = (*out)[i];
    child.id = Encode(page, static_cast<int>(i));
    child.mbr = view.mbrs[i];
    child.height = height;
    child.application = view.is_leaf;
    child.expandable = !view.is_leaf;
    child.tuple = view.is_leaf ? view.payloads[i] : kInvalidTupleId;
    child.geometry = EntryGeometry(view.is_leaf, view.mbrs[i],
                                   view.payloads[i]);
  }
}

Value RTreeGenTree::Geometry(NodeId node) const {
  if (node == kRootId) return Value(rtree_->RootMbr());
  Entry e = Decode(node);
  const RTree::EntryView entry = rtree_->ReadEntry(e.page, e.slot);
  return EntryGeometry(entry.node.is_leaf, entry.mbr, entry.payload);
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
