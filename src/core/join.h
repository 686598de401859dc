#ifndef SPATIALJOIN_CORE_JOIN_H_
#define SPATIALJOIN_CORE_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/gentree.h"
#include "core/select.h"
#include "core/theta_ops.h"

namespace spatialjoin {

namespace exec {
class CancelToken;
}  // namespace exec

/// Outcome of a general spatial join, with the counters the cost model
/// prices.
struct JoinResult {
  /// Matching (R-tuple, S-tuple) pairs. Each matching pair appears exactly
  /// once (equal-height matches via JOIN3, unequal-height matches via the
  /// JOIN4 selection passes).
  std::vector<std::pair<TupleId, TupleId>> matches;
  int64_t theta_upper_tests = 0;
  int64_t theta_tests = 0;
  int64_t nodes_accessed = 0;
  /// Total size of the QualPairs worklists (pairs examined by JOIN2).
  int64_t qual_pairs_examined = 0;
};

/// Algorithm JOIN (paper §3.3): computes R ⋈_θ S over two generalization
/// trees by synchronized descent.
///
/// A QualPairs worklist per height holds pairs (a, b) of same-height nodes
/// whose parents Θ-matched crosswise. For each pair that Θ-matches, the
/// algorithm (JOIN3) θ-tests the pair itself and (JOIN4) runs two
/// selection passes — object a against the subtree below b and object b
/// against the subtree below a — to catch matches at unequal heights,
/// while recording which direct children cross-qualify to seed the next
/// worklist.
///
/// When `trace` is non-null, each QualPairs level j contributes one trace
/// level: worklist size (|QualPairs[j]|), Θ/θ tests (including the JOIN4
/// selection passes triggered from that level), pairs pruned vs.
/// descended at JOIN2, the query's own buffer-pool traffic (LevelTrace),
/// and wall-clock time. The traversal is breadth-first, JOIN4's passes
/// included.
///
/// `cancel` (optional) is polled at every QualPairs level boundary: a
/// cancelled or over-deadline query stops before starting the next level
/// and returns the matches found so far, with the token's latched reason
/// telling the caller the result is partial (exec/cancel.h).
JoinResult TreeJoin(const GeneralizationTree& r_tree,
                    const GeneralizationTree& s_tree,
                    const ThetaOperator& op,
                    QueryTrace* trace = nullptr,
                    const exec::CancelToken* cancel = nullptr);

}  // namespace spatialjoin

#endif  // SPATIALJOIN_CORE_JOIN_H_
