#ifndef SPATIALJOIN_EXEC_FROZEN_TREE_H_
#define SPATIALJOIN_EXEC_FROZEN_TREE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "core/gentree.h"
#include "core/theta_ops.h"
#include "geometry/ring_approx.h"

namespace spatialjoin {
namespace exec {

/// A run of consecutive node ids [begin, end).
struct NodeRange {
  NodeId begin = 0;
  NodeId end = 0;
  int64_t size() const { return end - begin; }
};

/// An immutable, fully materialized snapshot of a GeneralizationTree.
///
/// The engine's storage layer is deliberately single-threaded (BufferPool
/// hands out unpinned pointers), so the disk-backed tree adapters are not
/// safe for concurrent reads. `Materialize` walks the source tree once on
/// the calling thread — paying all page I/O up front, which matches the
/// load phase that in-memory join systems assume, a node's children at a
/// time through GeneralizationTree::ReadChildren — and after that every
/// accessor is a pure read of immutable data, safe from any number of
/// threads.
///
/// Layout (struct-of-arrays, DESIGN.md §7): node ids are densified to
/// [0, num_nodes) in BFS order with the root at id 0, so a node's children
/// are the contiguous id range ChildSpan(node) and one offset per node
/// replaces any child list. MBRs live in four coordinate planes
/// (MbrPlanes), which the join kernel hands to
/// ThetaOperator::ThetaUpperBatch a row at a time; geometries are held out
/// of line and touched only by θ. Every polygon application object also
/// gets a RingApprox record, built by the same walk and read by θ before
/// the geometry; a tree without one allocates no records.
class FrozenTree : public GeneralizationTree {
 public:
  /// Snapshots `source` (single-threaded; pays the full tree's I/O).
  static FrozenTree Materialize(const GeneralizationTree& source);

  FrozenTree(FrozenTree&&) = default;
  FrozenTree& operator=(FrozenTree&&) = default;
  FrozenTree(const FrozenTree&) = delete;
  FrozenTree& operator=(const FrozenTree&) = delete;

  // GeneralizationTree interface — all const, concurrently callable, for
  // the generic callers (join_detail kernel, DFS select, audits). SJ_HOT
  // holds them to the no-alloc/no-lock contract; Children() is the one
  // exception, as the interface returns a fresh vector (a baselined
  // finding). The flat kernel uses the accessors below instead.
  NodeId root() const override { return 0; }
  int height() const override { return height_; }
  SJ_HOT int HeightOf(NodeId node) const override;
  SJ_HOT std::vector<NodeId> Children(NodeId node) const override;
  SJ_HOT Value Geometry(NodeId node) const override;
  SJ_HOT Rectangle MbrOf(NodeId node) const override;
  SJ_HOT bool IsApplicationNode(NodeId node) const override;
  SJ_HOT TupleId TupleOf(NodeId node) const override;
  int64_t num_nodes() const override {
    return static_cast<int64_t>(heights_.size());
  }

  // Flat accessors: non-virtual, copy-free, bounds-checked only in debug
  // builds (callers pass ids taken from this tree).

  /// The MBR planes, indexed by node id.
  SJ_HOT MbrPlanes planes() const { return mbrs_.view(); }
  /// The children of `node`: BFS numbering makes them consecutive.
  SJ_HOT NodeRange ChildSpan(NodeId node) const {
    SJ_DCHECK(node >= 0 && node < num_nodes());
    const size_t i = static_cast<size_t>(node);
    return {child_offsets_[i], child_offsets_[i + 1]};
  }
  SJ_HOT Rectangle MbrAt(NodeId node) const { return planes().At(node); }
  SJ_HOT const Value& GeometryRef(NodeId node) const {
    SJ_DCHECK(node >= 0 && node < num_nodes());
    return geometries_[static_cast<size_t>(node)];
  }
  SJ_HOT bool IsApplicationAt(NodeId node) const {
    SJ_DCHECK(node >= 0 && node < num_nodes());
    return application_[static_cast<size_t>(node)] != 0;
  }
  SJ_HOT TupleId TupleAt(NodeId node) const {
    SJ_DCHECK(node >= 0 && node < num_nodes());
    return tuples_[static_cast<size_t>(node)];
  }
  SJ_HOT int HeightAt(NodeId node) const {
    SJ_DCHECK(node >= 0 && node < num_nodes());
    return heights_[static_cast<size_t>(node)];
  }
  /// The ring approximations of `node`'s polygon, or null when the node
  /// is no polygon application object.
  SJ_HOT const RingApprox* ApproxAt(NodeId node) const {
    SJ_DCHECK(node >= 0 && node < num_nodes());
    if (approx_.empty()) return nullptr;
    const RingApprox& approx = approx_[static_cast<size_t>(node)];
    return approx.built() ? &approx : nullptr;
  }
  /// True iff the tree holds any record (it has a polygon application
  /// object); a tree without one allocates no record storage.
  bool has_approx() const { return !approx_.empty(); }
  /// Largest child count of any node (sizes the kernel's scratch rows).
  SJ_HOT int64_t max_fanout() const { return max_fanout_; }

 private:
  FrozenTree() = default;

  void CheckNode(NodeId node) const;
  // Adds the node with the next dense id (and its ring record); `expected`
  // sizes the record storage when the first one appears.
  void Append(Value&& geometry, const Rectangle& mbr, TupleId tuple,
              int height, bool application, size_t expected);

  MbrPlaneBuffer mbrs_;
  std::vector<Value> geometries_;
  std::vector<TupleId> tuples_;
  std::vector<int> heights_;
  std::vector<uint8_t> application_;
  // Indexed by node id, unbuilt for every node that is no polygon
  // application object; empty when no node is one.
  std::vector<RingApprox> approx_;
  // Children of node i are [child_offsets_[i], child_offsets_[i + 1]).
  std::vector<NodeId> child_offsets_;
  int height_ = 0;
  int64_t max_fanout_ = 0;
};

}  // namespace exec
}  // namespace spatialjoin

#endif  // SPATIALJOIN_EXEC_FROZEN_TREE_H_
