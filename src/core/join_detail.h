#ifndef SPATIALJOIN_CORE_JOIN_DETAIL_H_
#define SPATIALJOIN_CORE_JOIN_DETAIL_H_

#include <deque>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/thread_annotations.h"
#include "core/gentree.h"
#include "core/join.h"
#include "core/theta_ops.h"

namespace spatialjoin {
namespace join_detail {

/// One JOIN4 selection pass (paper §3.3): tests `selector_geom` (the
/// object of `selector_node` from `selector_tree`) against all strict
/// descendants of `anchor` in `tree`. Emits matches into `result` (ordered
/// according to `selector_is_r`), and returns the direct children of
/// `anchor` that Θ-qualify (they seed the next QualPairs level).
///
/// The generic kernel, for disk-backed trees and in-memory hierarchies:
/// every node access goes through the GeneralizationTree interface and
/// charges page I/O in the order the cost-model benches measure. Two
/// FrozenTrees take the flat kernel (exec/flat_kernel.cc): the same matches
/// in order, but θ only on application pairs and no descent below a
/// non-application selector's children; its Θ/θ/node counts are ≤ these.
///
/// SJ_HOT: its exceptions (worklist growth, virtual generalization-tree
/// and Θ dispatch — the paper's extension points) are enumerated in
/// scripts/analysis/baseline.json; do not add new ones.
SJ_HOT inline std::vector<NodeId> SelectPass(
    const GeneralizationTree& selector_tree, NodeId selector_node,
    const Value& selector_geom, const GeneralizationTree& tree, NodeId anchor,
    const ThetaOperator& op, bool selector_is_r, JoinResult* result) {
  std::vector<NodeId> qualifying_children;
  Rectangle selector_mbr = selector_tree.MbrOf(selector_node);
  std::vector<NodeId> direct_children = tree.Children(anchor);
  std::deque<std::pair<NodeId, bool>> worklist;  // (node, is_direct_child)
  for (NodeId c : direct_children) {
    SJ_BOUNDED_WORK;  // one anchor's direct children (node fanout)
    worklist.emplace_back(c, true);
  }
  while (!worklist.empty()) {
    SJ_BOUNDED_WORK;  // one anchor's subtree; the JOIN level loop polls
    auto [node, is_direct] = worklist.front();
    worklist.pop_front();
    ++result->theta_upper_tests;
    // Θ must see its operands in R-before-S order (Θ can be asymmetric,
    // e.g. "to the Northwest of", Table 1).
    Rectangle node_mbr = tree.MbrOf(node);
    bool upper_match = selector_is_r ? op.ThetaUpper(selector_mbr, node_mbr)
                                     : op.ThetaUpper(node_mbr, selector_mbr);
    if (!upper_match) continue;
    if (is_direct) qualifying_children.push_back(node);
    Value geometry = tree.Geometry(node);
    ++result->nodes_accessed;
    ++result->theta_tests;
    bool theta_match = selector_is_r ? op.Theta(selector_geom, geometry)
                                     : op.Theta(geometry, selector_geom);
    if (theta_match && tree.IsApplicationNode(node) &&
        selector_tree.IsApplicationNode(selector_node)) {
      TupleId selector_tuple = selector_tree.TupleOf(selector_node);
      TupleId node_tuple = tree.TupleOf(node);
      if (selector_is_r) {
        result->matches.emplace_back(selector_tuple, node_tuple);
      } else {
        result->matches.emplace_back(node_tuple, selector_tuple);
      }
    }
    for (NodeId child : tree.Children(node)) {
      SJ_BOUNDED_WORK;  // one node's children (node fanout)
      worklist.emplace_back(child, false);
    }
  }
  return qualifying_children;
}

/// The JOIN2/JOIN3/JOIN4 body for one QualPairs entry (a, b): Θ-test the
/// pair, θ-test it on success, run the two selection passes, and append
/// the cross product of the qualifying children to `next_level`. Returns
/// false when the pair was pruned at JOIN2. All counters land in `result`.
SJ_HOT inline bool ProcessQualPair(const GeneralizationTree& r_tree,
                            const GeneralizationTree& s_tree, NodeId a,
                            NodeId b, const ThetaOperator& op,
                            JoinResult* result,
                            std::vector<std::pair<NodeId, NodeId>>*
                                next_level) {
  ++result->qual_pairs_examined;
  // JOIN2: Θ-test the pair itself.
  ++result->theta_upper_tests;
  if (!op.ThetaUpper(r_tree.MbrOf(a), s_tree.MbrOf(b))) return false;

  Value geom_a = r_tree.Geometry(a);
  Value geom_b = s_tree.Geometry(b);
  result->nodes_accessed += 2;

  // JOIN3: θ-test; equal-height matches are emitted here.
  ++result->theta_tests;
  if (op.Theta(geom_a, geom_b) && r_tree.IsApplicationNode(a) &&
      s_tree.IsApplicationNode(b)) {
    result->matches.emplace_back(r_tree.TupleOf(a), s_tree.TupleOf(b));
  }

  // JOIN4: two selection passes for unequal-height matches, recording
  // cross-qualifying direct children for the next level.
  std::vector<NodeId> qual_b = SelectPass(r_tree, a, geom_a, s_tree, b, op,
                                          /*selector_is_r=*/true, result);
  std::vector<NodeId> qual_a = SelectPass(s_tree, b, geom_b, r_tree, a, op,
                                          /*selector_is_r=*/false, result);
  for (NodeId a2 : qual_a) {
    SJ_BOUNDED_WORK;  // qualifying children of one pair (fanout^2)
    for (NodeId b2 : qual_b) {
      SJ_BOUNDED_WORK;  // qualifying children of one pair (fanout^2)
      next_level->emplace_back(a2, b2);
    }
  }
  return true;
}

}  // namespace join_detail
}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_JOIN_DETAIL_H_
