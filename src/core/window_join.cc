#include "core/window_join.h"

#include "common/check.h"

namespace spatialjoin {

JoinResult RTreeWindowJoin(const RTree& r_index, const Relation& r,
                           size_t col_r, const Relation& s, size_t col_s,
                           const ThetaOperator& op, const Rectangle& world) {
  JoinResult result;
  s.Scan([&](TupleId s_tid, const Tuple& s_tuple) {
    ++result.nodes_accessed;
    const Value& s_value = s_tuple.value(col_s);
    std::optional<Rectangle> window =
        op.ProbeWindow(s_value.Mbr(), world);
    SJ_CHECK_MSG(window.has_value(),
                 op.name() << " has no finite probe window; use the "
                              "generalization-tree strategies");
    r_index.Search(*window, [&](const Rectangle&, TupleId r_tid) {
      Value r_value = r.ReadValue(r_tid, col_r);
      ++result.nodes_accessed;
      ++result.theta_tests;
      if (op.Theta(r_value, s_value)) {
        result.matches.emplace_back(r_tid, s_tid);
      }
    });
  });
  return result;
}

JoinResult GridFileWindowJoin(const GridFile& r_index, const Relation& r,
                              size_t col_r, const Relation& s, size_t col_s,
                              const ThetaOperator& op) {
  JoinResult result;
  const Rectangle& world = r_index.world();
  s.Scan([&](TupleId s_tid, const Tuple& s_tuple) {
    ++result.nodes_accessed;
    const Value& s_value = s_tuple.value(col_s);
    std::optional<Rectangle> window =
        op.ProbeWindow(s_value.Mbr(), world);
    SJ_CHECK_MSG(window.has_value(),
                 op.name() << " has no finite probe window; use the "
                              "generalization-tree strategies");
    for (TupleId r_tid : r_index.SearchTids(*window)) {
      Value r_value = r.ReadValue(r_tid, col_r);
      ++result.nodes_accessed;
      ++result.theta_tests;
      if (op.Theta(r_value, s_value)) {
        result.matches.emplace_back(r_tid, s_tid);
      }
    }
  });
  return result;
}

}  // namespace spatialjoin
