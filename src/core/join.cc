#include "core/join.h"

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "core/join_detail.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "exec/parallel_join.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace spatialjoin {

JoinResult TreeJoin(const GeneralizationTree& r_tree,
                    const GeneralizationTree& s_tree, const ThetaOperator& op,
                    QueryTrace* trace, const exec::CancelToken* cancel) {
  // Two FrozenTrees take the flat kernel (exec/parallel_join.h): the same
  // matches, QualPairs and stop points without per-pair virtual calls or
  // allocation, and without the θ tests that cannot emit a match.
  // Disk-backed trees and in-memory hierarchies stay on the generic
  // kernel below, which makes every test of the paper's algorithm and
  // whose page-access order the cost-model benches measure.
  const auto* r_frozen = dynamic_cast<const exec::FrozenTree*>(&r_tree);
  const auto* s_frozen = dynamic_cast<const exec::FrozenTree*>(&s_tree);
  if (r_frozen != nullptr && s_frozen != nullptr) {
    return exec::ParallelTreeJoin(*r_frozen, *s_frozen, op, /*pool=*/nullptr,
                                  cancel, trace);
  }
  JoinResult result;
  int max_level = std::min(r_tree.height(), s_tree.height());

  // QualPairs[j], processed level by level (JOIN1/JOIN2). The per-pair
  // body (JOIN2–JOIN4) lives in join_detail::ProcessQualPair.
  std::vector<std::pair<NodeId, NodeId>> current_level;
  current_level.emplace_back(r_tree.root(), s_tree.root());

  for (int j = 0; j <= max_level && !current_level.empty(); ++j) {
    // Cooperative stop point: between levels, never mid-pair, so a
    // stopped join is a clean prefix of the level-synchronized run.
    if (cancel != nullptr && cancel->ShouldStop()) break;
    SJ_SPAN_CAT("join.level", "core");
    // Heartbeat for the watchdog (DESIGN.md §10): once per level is the
    // protocol's granularity for tree traversals.
    ActivityScope::BeatThisThread();
    TraceCounter("join.qual_pairs",
                 static_cast<int64_t>(current_level.size()));
    // The JOIN4 passes descend into deeper subtrees, but their cost is
    // charged to the QualPairs level that triggered them — matching how
    // the model charges the per-pair selection term to the pair's height
    // (§4.4).
    LevelTrace level_trace(trace, result.theta_upper_tests,
                           result.theta_tests);
    int64_t level_pruned = 0;
    int64_t level_descended = 0;

    std::vector<std::pair<NodeId, NodeId>> next_level;
    for (const auto& [a, b] : current_level) {
      SJ_BOUNDED_WORK;  // one level's QualPairs; the level loop polls
      if (join_detail::ProcessQualPair(r_tree, s_tree, a, b, op, &result,
                                       &next_level)) {
        ++level_descended;
      } else {
        ++level_pruned;
      }
    }

    level_trace.RecordLevel(j, static_cast<int64_t>(current_level.size()),
                            result.theta_upper_tests, result.theta_tests,
                            level_pruned, level_descended);
    current_level = std::move(next_level);
  }
  return result;
}

}  // namespace spatialjoin
