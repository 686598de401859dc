#include "core/memory_gentree.h"

#include <algorithm>

#include "common/check.h"

namespace spatialjoin {

const MemoryGenTree::Node& MemoryGenTree::NodeAt(NodeId id) const {
  SJ_CHECK_GE(id, 0);
  SJ_CHECK_LT(id, num_nodes());
  return nodes_[static_cast<size_t>(id)];
}

NodeId MemoryGenTree::AddNode(NodeId parent, Value geometry, TupleId tuple,
                              std::string label) {
  Node node;
  node.parent = parent;
  node.mbr = geometry.Mbr();
  node.geometry = std::move(geometry);
  node.tuple = tuple;
  node.label = std::move(label);
  if (parent == kInvalidNodeId) {
    SJ_CHECK_MSG(nodes_.empty(), "tree already has a root");
    node.height = 0;
  } else {
    const Node& p = NodeAt(parent);
    node.height = p.height + 1;
    SJ_CHECK_MSG(p.mbr.Contains(node.mbr),
                 "child MBR " << node.mbr.ToString()
                              << " not contained in parent "
                              << p.mbr.ToString());
  }
  NodeId id = num_nodes();
  height_ = std::max(height_, node.height);
  nodes_.push_back(std::move(node));
  if (parent != kInvalidNodeId) {
    nodes_[static_cast<size_t>(parent)].children.push_back(id);
  }
  return id;
}

void MemoryGenTree::AttachRelation(const Relation* relation, size_t column) {
  SJ_CHECK(relation != nullptr);
  SJ_CHECK_LT(column, relation->schema().num_columns());
  SJ_CHECK(relation->schema().IsSpatial(column));
  relation_ = relation;
  relation_column_ = column;
}

NodeId MemoryGenTree::InsertByContainment(Value geometry, TupleId tuple,
                                          int64_t* tests_out) {
  SJ_CHECK(!nodes_.empty());
  Rectangle mbr = geometry.Mbr();
  int64_t tests = 0;
  NodeId current = root();
  SJ_CHECK_MSG(NodeAt(current).mbr.Contains(mbr),
               "object " << mbr.ToString() << " outside the root object");
  for (;;) {
    NodeId next = kInvalidNodeId;
    for (NodeId child : NodeAt(current).children) {
      ++tests;
      if (NodeAt(child).mbr.Contains(mbr)) {
        next = child;
        break;
      }
    }
    if (next == kInvalidNodeId) break;
    current = next;
  }
  if (tests_out != nullptr) *tests_out = tests;
  return AddNode(current, std::move(geometry), tuple);
}

bool MemoryGenTree::ValidateContainment() const {
  for (const Node& node : nodes_) {
    if (node.parent == kInvalidNodeId) continue;
    if (!NodeAt(node.parent).mbr.Contains(node.mbr)) return false;
  }
  return true;
}

const std::string& MemoryGenTree::LabelOf(NodeId node) const {
  return NodeAt(node).label;
}

NodeId MemoryGenTree::ParentOf(NodeId node) const {
  return NodeAt(node).parent;
}

NodeId MemoryGenTree::root() const {
  SJ_CHECK_MSG(!nodes_.empty(), "tree is empty");
  return 0;
}

int MemoryGenTree::HeightOf(NodeId node) const { return NodeAt(node).height; }

std::vector<NodeId> MemoryGenTree::Children(NodeId node) const {
  return NodeAt(node).children;
}

Value MemoryGenTree::Geometry(NodeId node) const {
  const Node& n = NodeAt(node);
  if (relation_ != nullptr && n.tuple != kInvalidTupleId) {
    // Disk-backed node: fetch the stored tuple (this is where strategy
    // IIa/IIb I/O happens).
    return relation_->ReadValue(n.tuple, relation_column_);
  }
  return n.geometry;
}

Rectangle MemoryGenTree::MbrOf(NodeId node) const { return NodeAt(node).mbr; }

bool MemoryGenTree::IsApplicationNode(NodeId node) const {
  return NodeAt(node).tuple != kInvalidTupleId;
}

TupleId MemoryGenTree::TupleOf(NodeId node) const {
  return NodeAt(node).tuple;
}

}  // namespace spatialjoin
