#include "quadtree/quadtree.h"

#include <algorithm>

#include "common/check.h"

namespace spatialjoin {

QuadTree::QuadTree(const Rectangle& world, int max_depth)
    : max_depth_(max_depth) {
  SJ_CHECK(!world.is_empty());
  SJ_CHECK(world.width() > 0 && world.height() > 0);
  SJ_CHECK_GE(max_depth, 1);
  Node root;
  root.rect = world;
  nodes_.push_back(root);
  num_cells_ = 1;
}

void QuadTree::AttachRelation(const Relation* relation, size_t column) {
  SJ_CHECK(relation != nullptr);
  SJ_CHECK_LT(column, relation->schema().num_columns());
  SJ_CHECK(relation->schema().IsSpatial(column));
  relation_ = relation;
  column_ = column;
}

const QuadTree::Node& QuadTree::NodeAt(NodeId id) const {
  SJ_CHECK_GE(id, 0);
  SJ_CHECK_LT(id, num_nodes());
  return nodes_[static_cast<size_t>(id)];
}

QuadTree::Node& QuadTree::MutableNodeAt(NodeId id) {
  return const_cast<Node&>(NodeAt(id));
}

Rectangle QuadTree::QuadrantRect(const Rectangle& rect, int q) {
  double mid_x = (rect.min_x() + rect.max_x()) / 2.0;
  double mid_y = (rect.min_y() + rect.max_y()) / 2.0;
  switch (q) {
    case 0:
      return Rectangle(rect.min_x(), rect.min_y(), mid_x, mid_y);
    case 1:
      return Rectangle(mid_x, rect.min_y(), rect.max_x(), mid_y);
    case 2:
      return Rectangle(rect.min_x(), mid_y, mid_x, rect.max_y());
    default:
      return Rectangle(mid_x, mid_y, rect.max_x(), rect.max_y());
  }
}

int QuadTree::FittingQuadrant(NodeId cell, const Rectangle& mbr) const {
  const Node& node = NodeAt(cell);
  for (int q = 0; q < 4; ++q) {
    if (QuadrantRect(node.rect, q).Contains(mbr)) return q;
  }
  return -1;
}

NodeId QuadTree::Insert(const Rectangle& mbr, TupleId tid) {
  SJ_CHECK(!mbr.is_empty());
  SJ_CHECK_MSG(NodeAt(root()).rect.Contains(mbr),
               "object " << mbr.ToString() << " outside the world "
                         << NodeAt(root()).rect.ToString());
  NodeId cell = root();
  while (NodeAt(cell).depth < max_depth_) {
    int q = FittingQuadrant(cell, mbr);
    if (q < 0) break;
    NodeId child = NodeAt(cell).quadrants[static_cast<size_t>(q)];
    if (child == kInvalidNodeId) {
      Node fresh;
      fresh.rect = QuadrantRect(NodeAt(cell).rect, q);
      fresh.parent = cell;
      fresh.depth = NodeAt(cell).depth + 1;
      child = num_nodes();
      nodes_.push_back(fresh);
      MutableNodeAt(cell).quadrants[static_cast<size_t>(q)] = child;
      ++num_cells_;
      height_ = std::max(height_, fresh.depth);
    }
    cell = child;
  }
  Node object;
  object.is_object = true;
  object.rect = mbr;
  object.tid = tid;
  object.parent = cell;
  object.depth = NodeAt(cell).depth + 1;
  NodeId id = num_nodes();
  nodes_.push_back(object);
  MutableNodeAt(cell).objects.push_back(id);
  ++num_objects_;
  height_ = std::max(height_, object.depth);
  return id;
}

bool QuadTree::Remove(const Rectangle& mbr, TupleId tid) {
  // Descend exactly as Insert would to find the owning cell.
  NodeId cell = root();
  for (;;) {
    Node& node = MutableNodeAt(cell);
    auto& objs = node.objects;
    for (size_t i = 0; i < objs.size(); ++i) {
      const Node& obj = NodeAt(objs[i]);
      if (obj.tid == tid && obj.rect == mbr) {
        // Unlink; the object node stays in the arena as a tombstone
        // (ids are stable), invisible to traversals.
        objs.erase(objs.begin() + static_cast<long>(i));
        --num_objects_;
        return true;
      }
    }
    if (node.depth >= max_depth_) return false;
    int q = FittingQuadrant(cell, mbr);
    if (q < 0) return false;
    NodeId child = node.quadrants[static_cast<size_t>(q)];
    if (child == kInvalidNodeId) return false;
    cell = child;
  }
}

std::vector<TupleId> QuadTree::SearchTids(const Rectangle& window) const {
  std::vector<TupleId> out;
  std::vector<NodeId> stack{root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const Node& node = NodeAt(id);
    if (!node.rect.Overlaps(window)) continue;
    for (NodeId obj : node.objects) {
      if (NodeAt(obj).rect.Overlaps(window)) {
        out.push_back(NodeAt(obj).tid);
      }
    }
    for (NodeId q : node.quadrants) {
      if (q != kInvalidNodeId) stack.push_back(q);
    }
  }
  return out;
}

int QuadTree::HeightOf(NodeId node) const { return NodeAt(node).depth; }

std::vector<NodeId> QuadTree::Children(NodeId node) const {
  const Node& n = NodeAt(node);
  std::vector<NodeId> children;
  if (n.is_object) return children;
  for (NodeId q : n.quadrants) {
    if (q != kInvalidNodeId) children.push_back(q);
  }
  children.insert(children.end(), n.objects.begin(), n.objects.end());
  return children;
}

Value QuadTree::Geometry(NodeId node) const {
  const Node& n = NodeAt(node);
  if (n.is_object && relation_ != nullptr && n.tid != kInvalidTupleId) {
    return relation_->ReadValue(n.tid, column_);
  }
  return Value(n.rect);
}

Rectangle QuadTree::MbrOf(NodeId node) const { return NodeAt(node).rect; }

bool QuadTree::IsApplicationNode(NodeId node) const {
  return NodeAt(node).is_object;
}

TupleId QuadTree::TupleOf(NodeId node) const {
  const Node& n = NodeAt(node);
  return n.is_object ? n.tid : kInvalidTupleId;
}

void QuadTree::CheckInvariants() const {
  int64_t objects_seen = 0;
  std::vector<NodeId> stack{root()};
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    const Node& node = NodeAt(id);
    SJ_CHECK(!node.is_object);
    if (node.parent != kInvalidNodeId) {
      SJ_CHECK(NodeAt(node.parent).rect.Contains(node.rect));
      SJ_CHECK_EQ(node.depth, NodeAt(node.parent).depth + 1);
    }
    for (NodeId obj_id : node.objects) {
      const Node& obj = NodeAt(obj_id);
      SJ_CHECK(obj.is_object);
      SJ_CHECK(node.rect.Contains(obj.rect));
      SJ_CHECK_EQ(obj.parent, id);
      // Smallest-cell property: below the depth cap, no quadrant may
      // fully contain a resident object.
      if (node.depth < max_depth_) {
        SJ_CHECK_EQ(FittingQuadrant(id, obj.rect), -1);
      }
      ++objects_seen;
    }
    for (NodeId q : node.quadrants) {
      if (q != kInvalidNodeId) stack.push_back(q);
    }
  }
  SJ_CHECK_EQ(objects_seen, num_objects_);
}

}  // namespace spatialjoin
