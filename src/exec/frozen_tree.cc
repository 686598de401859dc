#include "exec/frozen_tree.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/analysis_annotations.h"
#include "geometry/polygon.h"
#include "obs/span.h"

namespace spatialjoin {
namespace exec {

FrozenTree FrozenTree::Materialize(const GeneralizationTree& source) {
  SJ_SPAN_CAT("frozen_tree.materialize", "exec");
  FrozenTree frozen;
  frozen.height_ = source.height();

  // Sized up front: growing the arrays while the source's page reads churn
  // the heap slows the walk. num_nodes() does no I/O, so the source
  // accesses are exactly those of the walk below.
  const size_t expected =
      static_cast<size_t>(std::max<int64_t>(1, source.num_nodes()));
  frozen.mbrs_.Reserve(expected);
  frozen.geometries_.reserve(expected);
  frozen.tuples_.reserve(expected);
  frozen.heights_.reserve(expected);
  frozen.application_.reserve(expected);
  frozen.child_offsets_.reserve(expected + 1);
  const NodeId root = source.root();
  frozen.Append(source.Geometry(root), source.MbrOf(root),
                source.TupleOf(root), source.HeightOf(root),
                source.IsApplicationNode(root), expected);
  // BFS by dense id: node i's children are appended when i is expanded,
  // so they take the next dense ids and one offset per node describes
  // them all. Only nodes that can have children are remembered, with
  // their source ids, in dense-id order; an R-tree's leaf entries never
  // are. Geometries are decoded in this order too, so the polygon rings
  // are allocated in the order the join visits them.
  std::vector<std::pair<NodeId, NodeId>> parents = {{0, root}};
  size_t next_parent = 0;
  std::vector<ChildRecord> children;
  for (NodeId node = 0; node < frozen.num_nodes(); ++node) {
    SJ_BOUNDED_WORK;  // one BFS pass per dataset load; not a query path
    frozen.child_offsets_.push_back(frozen.num_nodes());
    if (next_parent == parents.size() || parents[next_parent].first != node) {
      continue;
    }
    source.ReadChildren(parents[next_parent++].second, &children);
    frozen.max_fanout_ = std::max(frozen.max_fanout_,
                                  static_cast<int64_t>(children.size()));
    for (ChildRecord& child : children) {
      SJ_BOUNDED_WORK;  // one node's children (node fanout)
      if (child.expandable) parents.emplace_back(frozen.num_nodes(), child.id);
      frozen.Append(std::move(child.geometry), child.mbr, child.tuple,
                    child.height, child.application, expected);
    }
  }
  frozen.child_offsets_.push_back(frozen.num_nodes());
  return frozen;
}

void FrozenTree::Append(Value&& geometry, const Rectangle& mbr,
                        TupleId tuple, int height, bool application,
                        size_t expected) {
  geometries_.push_back(std::move(geometry));
  mbrs_.AppendMbr(mbr);
  tuples_.push_back(tuple);
  heights_.push_back(height);
  application_.push_back(application ? 1 : 0);
  // The ring approximations, built while the ring just decoded is in
  // cache. Storage appears with the first polygon application object,
  // unbuilt records standing in for the nodes before it.
  const Polygon* polygon =
      application ? geometries_.back().TryPolygon() : nullptr;
  if (polygon != nullptr && approx_.empty()) {
    approx_.reserve(expected);
    approx_.resize(geometries_.size() - 1);
  }
  if (!approx_.empty()) {
    approx_.push_back(polygon != nullptr
                          ? BuildRingApprox(polygon->ring_view())
                          : RingApprox{});
  }
}

void FrozenTree::CheckNode(NodeId node) const {
  SJ_CHECK(node >= 0 && node < num_nodes());
}

SJ_HOT int FrozenTree::HeightOf(NodeId node) const {
  CheckNode(node);
  return HeightAt(node);
}

SJ_HOT std::vector<NodeId> FrozenTree::Children(NodeId node) const {
  CheckNode(node);
  const NodeRange kids = ChildSpan(node);
  std::vector<NodeId> out(static_cast<size_t>(kids.size()));
  std::iota(out.begin(), out.end(), kids.begin);
  return out;
}

SJ_HOT Value FrozenTree::Geometry(NodeId node) const {
  CheckNode(node);
  return GeometryRef(node);
}

SJ_HOT Rectangle FrozenTree::MbrOf(NodeId node) const {
  CheckNode(node);
  return MbrAt(node);
}

SJ_HOT bool FrozenTree::IsApplicationNode(NodeId node) const {
  CheckNode(node);
  return IsApplicationAt(node);
}

SJ_HOT TupleId FrozenTree::TupleOf(NodeId node) const {
  CheckNode(node);
  return TupleAt(node);
}

}  // namespace exec
}  // namespace spatialjoin
