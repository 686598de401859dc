#ifndef SPATIALJOIN_CORE_GENTREE_H_
#define SPATIALJOIN_CORE_GENTREE_H_

#include <cstdint>
#include <vector>

#include "common/analysis_annotations.h"
#include "geometry/rectangle.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace spatialjoin {

/// Identifier of a node within one generalization tree.
using NodeId = int64_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNodeId = -1;

/// A generalization tree (paper §3.1): a tree where each node corresponds
/// to a spatial object and, except for the root, each object is completely
/// contained in its parent's object. Siblings may overlap and need not
/// cover their parent (dead space is allowed).
///
/// The definition subsumes
///  * abstract spatial indices such as Guttman's R-tree (interior nodes
///    are technical bounding rectangles of no interest to the user), and
///  * application-specific hierarchies of detail (Fig. 3: countries →
///    regions → cities), where every node is an application object.
///
/// Each generalization tree serves as a secondary index on one spatial
/// column of one relation (the paper's standing assumption from §3.1).
///
/// Height convention (paper §3.2): the root is at height 0 and heights
/// grow downward; `height()` is the height of the deepest leaves.
///
/// I/O discipline: `Geometry(node)` is the access that touches the stored
/// object (paper assumption: "tree nodes contain the complete tuples");
/// disk-backed implementations charge page I/O there and in `Children`.
/// Metadata (`HeightOf`, `root`, …) is free, mirroring the model's
/// root-locked-in-memory assumption. The algorithms, the audits and the
/// cost-model benches read through these per-node accessors only, so
/// their page counts are the model's. `ReadChildren` is the one bulk
/// read, and only `FrozenTree::Materialize` calls it: a paged tree
/// answers it with one read of the child node's page, plus one tuple
/// read per stored child geometry.
class GeneralizationTree {
 public:
  virtual ~GeneralizationTree() = default;

  /// The root node. Trees are never empty.
  virtual NodeId root() const = 0;

  /// Height of the deepest leaf (root = 0).
  virtual int height() const = 0;

  /// Height of `node` (distance from the root).
  virtual int HeightOf(NodeId node) const = 0;

  /// Child nodes of `node`, empty for leaves. May perform page I/O.
  virtual std::vector<NodeId> Children(NodeId node) const = 0;

  /// The spatial object of `node`. For technical nodes (e.g. R-tree
  /// interior nodes) this is the bounding rectangle; for application
  /// nodes it is the stored geometry. May perform page I/O.
  virtual Value Geometry(NodeId node) const = 0;

  /// MBR of the node's object. Derivable from Geometry but kept separate
  /// because index-level MBRs are typically available without fetching
  /// the full object.
  virtual Rectangle MbrOf(NodeId node) const = 0;

  /// True iff the node corresponds to an application object that may
  /// qualify for a query answer (paper: "we allow for the possibility
  /// that interior nodes correspond to application objects").
  virtual bool IsApplicationNode(NodeId node) const = 0;

  /// The tuple this node represents, or kInvalidTupleId for technical
  /// nodes.
  virtual TupleId TupleOf(NodeId node) const = 0;

  /// Total number of nodes (application + technical).
  virtual int64_t num_nodes() const = 0;

  /// What ReadChildren reports for one child: everything the six
  /// accessors above give for it.
  struct ChildRecord {
    NodeId id = kInvalidNodeId;
    Rectangle mbr;
    int height = 0;
    TupleId tuple = kInvalidTupleId;
    bool application = false;
    /// False only when the child certainly has no children, so a walk
    /// need not ask for them.
    bool expandable = true;
    Value geometry;
  };

  /// Replaces `*out` with one record per child of `node`, in Children
  /// order. The default asks the accessors, child by child; a disk-backed
  /// tree overrides it to read a node page once for all its children.
  virtual void ReadChildren(NodeId node, std::vector<ChildRecord>* out) const {
    out->clear();
    for (NodeId child : Children(node)) {
      SJ_BOUNDED_WORK;  // one node's children (node fanout)
      ChildRecord& record = out->emplace_back();
      record.id = child;
      record.geometry = Geometry(child);
      record.mbr = MbrOf(child);
      record.tuple = TupleOf(child);
      record.height = HeightOf(child);
      record.application = IsApplicationNode(child);
    }
  }
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_GENTREE_H_
