#ifndef SPATIALJOIN_CORE_SELECT_H_
#define SPATIALJOIN_CORE_SELECT_H_

#include <cstdint>
#include <vector>

#include "core/gentree.h"
#include "core/theta_ops.h"
#include "obs/trace.h"

namespace spatialjoin {

namespace exec {
class CancelToken;
}  // namespace exec

/// Traversal order for Algorithm SELECT. The paper formulates the
/// breadth-first variant (QualNodes[j] per height) and notes a depth-first
/// variant is equally possible, their relative efficiency depending on the
/// physical clustering of the tree (§3.2); the ablation bench measures
/// exactly that.
enum class Traversal {
  kBreadthFirst,
  kDepthFirst,
};

/// Outcome of a spatial selection, with the counters the cost model prices.
struct SelectResult {
  /// Matching nodes, in traversal order.
  std::vector<NodeId> matching_nodes;
  /// Tuples of matching application nodes (subset of matching_nodes).
  std::vector<TupleId> matching_tuples;
  /// Number of Θ evaluations performed (each visited node costs one).
  int64_t theta_upper_tests = 0;
  /// Number of θ evaluations performed (one per Θ-qualifying node).
  int64_t theta_tests = 0;
  /// Nodes whose geometry was accessed.
  int64_t nodes_accessed = 0;
};

/// Algorithm SELECT (paper §3.2): computes all nodes a of `tree` with
/// `selector` θ a, by pruning with Θ top-down.
///
/// Per the paper's SELECT2 step, for each node a on the worklist the
/// algorithm tests selector Θ a; on success it (1) tests selector θ a and
/// reports a match if the node is an application node, and (2) expands a's
/// children into the next worklist. Θ's defining property guarantees no
/// matching descendant is pruned. Works whether or not the selector object
/// is stored in the indexed relation.
///
/// When `trace` is non-null, every visited node is recorded into the
/// trace level of its height: worklist membership (the QualNodes[j]
/// analog), Θ/θ test counts, pruned vs. descended, buffer-pool traffic,
/// and wall-clock time. A null trace adds no work to the hot path.
///
/// `cancel` (optional) is polled on the same stride as the watchdog
/// heartbeat (entry + every 256 visits — finer than one tree level for
/// any realistic fanout): a cancelled or over-deadline selection stops
/// there with the matches found so far, the token's latched reason
/// marking the result partial (exec/cancel.h).
///
/// A breadth-first selection over an exec::FrozenTree runs the flat
/// kernel (exec::FlatSelect) with the same visits, counters, trace and
/// stop points.
SelectResult SpatialSelect(const Value& selector,
                           const GeneralizationTree& tree,
                           const ThetaOperator& op,
                           Traversal traversal = Traversal::kBreadthFirst,
                           QueryTrace* trace = nullptr,
                           const exec::CancelToken* cancel = nullptr);

/// As SpatialSelect, but starting from an explicit set of root nodes, and
/// always the generic kernel, whatever the tree: the reference that the
/// flat SELECT (exec::FlatSelect) is checked against. Neither JOIN
/// kernel's step JOIN4 calls it (the generic one runs
/// join_detail::SelectPass, the flat one ScanBelow).
SelectResult SpatialSelectFrom(const Value& selector,
                               const GeneralizationTree& tree,
                               const std::vector<NodeId>& start_nodes,
                               const ThetaOperator& op,
                               Traversal traversal = Traversal::kBreadthFirst,
                               QueryTrace* trace = nullptr,
                               const exec::CancelToken* cancel = nullptr);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_SELECT_H_
