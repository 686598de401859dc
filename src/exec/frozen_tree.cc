#include "exec/frozen_tree.h"

#include <algorithm>
#include <deque>
#include <numeric>

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
  // BFS over the source, assigning dense ids in visit order. The children
  // of the node visited i-th are visited consecutively, so their dense ids
  // start at a running cursor: one offset per node describes them all.
  NodeId next_dense = 1;
  std::deque<NodeId> worklist;
  worklist.push_back(source.root());
  while (!worklist.empty()) {
    SJ_BOUNDED_WORK;  // one BFS pass per dataset load; not a query path
    NodeId src = worklist.front();
    worklist.pop_front();
    frozen.geometries_.push_back(source.Geometry(src));
    frozen.mbrs_.AppendMbr(source.MbrOf(src));
    frozen.tuples_.push_back(source.TupleOf(src));
    frozen.heights_.push_back(source.HeightOf(src));
    const bool application = source.IsApplicationNode(src);
    frozen.application_.push_back(application ? 1 : 0);
    // The ring approximations, built while the ring just copied is in
    // cache. Storage appears with the first polygon application object,
    // unbuilt records standing in for the nodes before it.
    const Polygon* polygon =
        application ? frozen.geometries_.back().TryPolygon() : nullptr;
    if (polygon != nullptr && frozen.approx_.empty()) {
      frozen.approx_.reserve(expected);
      frozen.approx_.resize(frozen.geometries_.size() - 1);
    }
    if (!frozen.approx_.empty()) {
      frozen.approx_.push_back(polygon != nullptr
                                   ? BuildRingApprox(polygon->ring_view())
                                   : RingApprox{});
    }
    std::vector<NodeId> kids = source.Children(src);
    frozen.child_offsets_.push_back(next_dense);
    next_dense += static_cast<NodeId>(kids.size());
    frozen.max_fanout_ =
        std::max(frozen.max_fanout_, static_cast<int64_t>(kids.size()));
    for (NodeId child : kids) {
      SJ_BOUNDED_WORK;  // one node's children (node fanout)
      worklist.push_back(child);
    }
  }
  frozen.child_offsets_.push_back(next_dense);
  SJ_CHECK_EQ(next_dense, frozen.num_nodes());
  return frozen;
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
