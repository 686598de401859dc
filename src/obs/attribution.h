#ifndef SPATIALJOIN_OBS_ATTRIBUTION_H_
#define SPATIALJOIN_OBS_ATTRIBUTION_H_

#include <atomic>
#include <cstdint>

namespace spatialjoin {
namespace attribution {

/// Per-query resource attribution (DESIGN.md §13).
///
/// The engine's layers already emit page accesses into the process-wide
/// MetricsRegistry; those aggregates answer "what is the engine doing"
/// but not "which query is doing it". Attribution closes that gap: every
/// query runs under exactly one `QueryCharges` sink (QueryChargeScope),
/// the caller's or, without one, its own (ExecuteJoin/ExecuteSelect),
/// and every charge hook hit by any thread working *for that query*
/// lands in the sink. Its QueryTrace levels difference it (LevelTrace).
///
/// Propagation across the pool is the load-bearing part:
/// ThreadPool::Submit captures the submitting thread's current sink and
/// re-installs it around the task body, so a ParallelTreeJoin chunk that
/// a helper claims on another worker still charges the query whose
/// ParallelFor posted the helper, at any thread count. The pool wrapper
/// also measures the task's queue wait (submit → run) and charges it to
/// the same sink.
///
/// Hot-path discipline: a hook is one thread-local load, a null check,
/// and one relaxed fetch_add — no allocation, no locks, no branches the
/// predictor cannot fold, so the hooks are legal inside SJ_HOT code and
/// cost nothing when no query scope is installed (the thread-local is
/// null outside query execution).
///
/// Exactness contract (pinned by tests/attribution_test.cc): charges are
/// neither lost nor double-counted — the per-query sums over any set of
/// concurrent queries equal the deltas of the corresponding global
/// registry counters, provided every charging call site runs inside some
/// query's scope.

/// Plain-value snapshot of one query's accumulated charges.
struct Charges {
  int64_t pages_read = 0;     ///< buffer-pool misses (disk page reads)
  int64_t pages_hit = 0;      ///< buffer-pool hits
  int64_t queue_wait_ns = 0;  ///< summed pool-task submit→run waits
  int64_t pool_tasks = 0;     ///< pool tasks that ran under this sink
};

/// Lock-free accumulator shared by every thread charging one query.
/// Writers use relaxed atomics; Snapshot() taken after the query body
/// joined (quiescence) is exact.
class QueryCharges {
 public:
  void AddPagesRead(int64_t n) {
    pages_read_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddPagesHit(int64_t n) {
    pages_hit_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddQueueWait(int64_t ns) {
    queue_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddPoolTask() { pool_tasks_.fetch_add(1, std::memory_order_relaxed); }

  Charges Snapshot() const {
    Charges c;
    c.pages_read = pages_read_.load(std::memory_order_relaxed);
    c.pages_hit = pages_hit_.load(std::memory_order_relaxed);
    c.queue_wait_ns = queue_wait_ns_.load(std::memory_order_relaxed);
    c.pool_tasks = pool_tasks_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  std::atomic<int64_t> pages_read_{0};
  std::atomic<int64_t> pages_hit_{0};
  std::atomic<int64_t> queue_wait_ns_{0};
  std::atomic<int64_t> pool_tasks_{0};
};

namespace internal {
/// The calling thread's active sink; null outside any query scope. Only
/// QueryChargeScope writes it (hooks read it), so install/restore pairs
/// are strictly nested per thread. `constinit` tells every includer that
/// it has no dynamic initializer, so accesses are plain TLS loads and
/// stores rather than calls through a wrapper that tests a weak
/// TLS-init symbol.
extern constinit thread_local QueryCharges* tls_charges;
}  // namespace internal

/// RAII installation of `charges` as the calling thread's sink. Restores
/// the previous sink on destruction, so scopes nest (an embedded query
/// executed inside another query's task charges the inner sink only).
/// Null `charges` is legal and suspends attribution inside the scope.
class QueryChargeScope {
 public:
  explicit QueryChargeScope(QueryCharges* charges)
      : prev_(internal::tls_charges) {
    internal::tls_charges = charges;
  }
  ~QueryChargeScope() { internal::tls_charges = prev_; }

  QueryChargeScope(const QueryChargeScope&) = delete;
  QueryChargeScope& operator=(const QueryChargeScope&) = delete;

 private:
  QueryCharges* const prev_;
};

/// The calling thread's active sink (null outside query scopes). The
/// thread pool uses this to propagate the sink onto spawned tasks.
inline QueryCharges* CurrentCharges() { return internal::tls_charges; }

// --- Charge hooks (hot-path safe; no-ops without an installed sink) ----

inline void ChargePagesRead(int64_t n = 1) {
  if (QueryCharges* c = internal::tls_charges) c->AddPagesRead(n);
}
inline void ChargePagesHit(int64_t n = 1) {
  if (QueryCharges* c = internal::tls_charges) c->AddPagesHit(n);
}

}  // namespace attribution
}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_ATTRIBUTION_H_
