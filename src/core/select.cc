#include "core/select.h"

#include <deque>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "exec/cancel.h"
#include "exec/frozen_tree.h"
#include "exec/parallel_join.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace spatialjoin {

namespace {

// Visits `node`: Θ-test, then on success θ-test + match bookkeeping, and
// returns whether the children should be expanded. When tracing, the
// visit is attributed to the trace level of the node's height (for the
// breadth-first variant that height is exactly the QualNodes[j] index).
bool VisitNode(const Value& selector, const GeneralizationTree& tree,
               const ThetaOperator& op, NodeId node, SelectResult* result,
               QueryTrace* trace) {
  // Read before the visit, so the height lookup's own page access stays
  // out of the level's pool traffic.
  const int height = trace != nullptr ? tree.HeightOf(node) : 0;
  LevelTrace level_trace(trace, result->theta_upper_tests,
                         result->theta_tests);

  ++result->theta_upper_tests;
  bool expand = op.ThetaUpper(selector.Mbr(), tree.MbrOf(node));
  if (expand) {
    // The node qualifies at index level; fetch its object and apply θ.
    Value geometry = tree.Geometry(node);
    ++result->nodes_accessed;
    ++result->theta_tests;
    if (op.Theta(selector, geometry)) {
      result->matching_nodes.push_back(node);
      if (tree.IsApplicationNode(node)) {
        result->matching_tuples.push_back(tree.TupleOf(node));
      }
    }
  }

  level_trace.RecordLevel(height, 1, result->theta_upper_tests,
                          result->theta_tests, expand ? 0 : 1,
                          expand ? 1 : 0);
  return expand;
}

// Timeline span per QualNodes height. The BFS worklist is processed in
// height order, so one span opens when the frontier reaches a new height
// and closes at the next transition (explicit TraceBegin/TraceEnd — the
// extent crosses loop iterations, so RAII does not fit).
class LevelSpans {
 public:
  ~LevelSpans() {
    if (open_) TraceEnd("select.level", "core");
  }

  void OnNode(const GeneralizationTree& tree, NodeId node) {
    if (!Tracing::enabled()) return;
    int height = tree.HeightOf(node);
    if (open_ && height == height_) return;
    if (open_) TraceEnd("select.level", "core");
    TraceBegin("select.level", "core");
    open_ = true;
    height_ = height;
  }

 private:
  bool open_ = false;
  int height_ = 0;
};

}  // namespace

SelectResult SpatialSelectFrom(const Value& selector,
                               const GeneralizationTree& tree,
                               const std::vector<NodeId>& start_nodes,
                               const ThetaOperator& op, Traversal traversal,
                               QueryTrace* trace,
                               const exec::CancelToken* cancel) {
  SelectResult result;
  // Already cancelled / past deadline at entry: do no work at all (the
  // deterministic guarantee the deadline tests pin).
  if (cancel != nullptr && cancel->ShouldStop()) return result;
  // Watchdog heartbeat every 256 visits: SELECT has no cheap per-level
  // boundary in the DFS variant, and a per-node clock read would be
  // measurable on the traversal hot path; the stride keeps a healthy
  // traversal's heartbeat far fresher than any plausible stall budget at
  // negligible cost. The cancel token is polled on the same stride — one
  // relaxed load (plus a clock read only with a deadline armed), and
  // finer-grained than a level boundary.
  uint32_t visits = 0;
  if (traversal == Traversal::kBreadthFirst) {
    // The paper's SELECT1/SELECT2: QualNodes[j] per height, processed in
    // height order. A deque models the concatenated QualNodes lists.
    LevelSpans spans;
    std::deque<NodeId> worklist(start_nodes.begin(), start_nodes.end());
    while (!worklist.empty()) {
      NodeId node = worklist.front();
      worklist.pop_front();
      spans.OnNode(tree, node);
      if ((++visits & 0xFF) == 0) {
        ActivityScope::BeatThisThread();
        if (cancel != nullptr && cancel->ShouldStop()) break;
      }
      if (VisitNode(selector, tree, op, node, &result, trace)) {
        for (NodeId child : tree.Children(node)) {
          SJ_BOUNDED_WORK;  // one node's children; the visit loop polls
          worklist.push_back(child);
        }
      }
    }
  } else {
    // Depth-first variant: LIFO stack, children pushed in reverse so the
    // leftmost subtree is explored first. Heights interleave, so the
    // whole traversal is one span rather than one per level.
    SJ_SPAN_CAT("select.depth_first", "core");
    std::vector<NodeId> stack(start_nodes.rbegin(), start_nodes.rend());
    while (!stack.empty()) {
      NodeId node = stack.back();
      stack.pop_back();
      if ((++visits & 0xFF) == 0) {
        ActivityScope::BeatThisThread();
        if (cancel != nullptr && cancel->ShouldStop()) break;
      }
      if (VisitNode(selector, tree, op, node, &result, trace)) {
        std::vector<NodeId> children = tree.Children(node);
        for (auto it = children.rbegin(); it != children.rend(); ++it) {
          SJ_BOUNDED_WORK;  // one node's children; the visit loop polls
          stack.push_back(*it);
        }
      }
    }
  }
  return result;
}

SelectResult SpatialSelect(const Value& selector,
                           const GeneralizationTree& tree,
                           const ThetaOperator& op, Traversal traversal,
                           QueryTrace* trace,
                           const exec::CancelToken* cancel) {
  // A breadth-first selection over a FrozenTree takes the flat kernel
  // (exec::FlatSelect): same visits, counters, trace and stop points.
  if (traversal == Traversal::kBreadthFirst) {
    if (const auto* frozen = dynamic_cast<const exec::FrozenTree*>(&tree)) {
      return exec::FlatSelect(selector, *frozen, op, cancel, trace);
    }
  }
  return SpatialSelectFrom(selector, tree, {tree.root()}, op, traversal,
                           trace, cancel);
}

}  // namespace spatialjoin
