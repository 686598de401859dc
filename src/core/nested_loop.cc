#include "core/nested_loop.h"

#include <algorithm>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "common/math_util.h"

namespace spatialjoin {

JoinResult NestedLoopJoin(const Relation& r, size_t col_r, const Relation& s,
                          size_t col_s, const ThetaOperator& op,
                          const NestedLoopOptions& options,
                          const exec::CancelToken* cancel) {
  SJ_CHECK_GT(options.memory_pages, options.reserved_pages);
  JoinResult result;
  if (r.num_tuples() == 0 || s.num_tuples() == 0) return result;

  // Block capacity in tuples: (M−10) pages × m tuples per page.
  int64_t tuples_per_page =
      std::max<int64_t>(1, CeilDiv(r.num_tuples(), std::max<int64_t>(
                                                       1, r.num_pages())));
  int64_t block_tuples =
      (options.memory_pages - options.reserved_pages) * tuples_per_page;
  SJ_CHECK_GT(block_tuples, 0);

  for (TupleId block_start = 0; block_start < r.num_tuples();
       block_start += block_tuples) {
    if (cancel != nullptr && cancel->ShouldStop()) break;
    TupleId block_end =
        std::min<TupleId>(block_start + block_tuples, r.num_tuples());
    // Pass 1 of the pass: bring the R block into memory.
    std::vector<std::pair<TupleId, Value>> block;
    block.reserve(static_cast<size_t>(block_end - block_start));
    for (TupleId tid = block_start; tid < block_end; ++tid) {
      SJ_BOUNDED_WORK;  // one R block (M-10 pages); the block loop polls
      block.emplace_back(tid, r.ReadValue(tid, col_r));
      ++result.nodes_accessed;
    }
    // Scan S once for this block.
    s.Scan([&](TupleId s_tid, const Tuple& s_tuple) {
      const Value& s_value = s_tuple.value(col_s);
      ++result.nodes_accessed;
      for (const auto& [r_tid, r_value] : block) {
        SJ_BOUNDED_WORK;  // one in-memory R block; the block loop polls
        ++result.theta_tests;
        if (op.Theta(r_value, s_value)) {
          result.matches.emplace_back(r_tid, s_tid);
        }
      }
    });
  }
  return result;
}

JoinResult NestedLoopSelect(const Value& selector, const Relation& r,
                            size_t col_r, const ThetaOperator& op) {
  JoinResult result;
  r.Scan([&](TupleId tid, const Tuple& tuple) {
    ++result.nodes_accessed;
    ++result.theta_tests;
    if (op.Theta(selector, tuple.value(col_r))) {
      result.matches.emplace_back(tid, kInvalidTupleId);
    }
  });
  return result;
}

}  // namespace spatialjoin
