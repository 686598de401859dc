#ifndef SPATIALJOIN_SERVER_SCHEDULER_H_
#define SPATIALJOIN_SERVER_SCHEDULER_H_

#include <cstdint>
#include <functional>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"

namespace spatialjoin {
namespace server {

/// Admission-controlled query scheduler (DESIGN.md §12).
///
/// Queries run as fire-and-forget tasks on the shared pool, each one
/// whole on the worker that took it (inter-query parallelism only). The
/// scheduler's job is the part the pool deliberately does not do:
/// bounding how many queries are in flight at once. A submission over the
/// bound is rejected *immediately* with RESOURCE_EXHAUSTED — the session
/// layer turns that into a backpressure error reply, keeping the server's
/// memory and queue depth bounded by `max_inflight × per-query cost` no
/// matter how many clients pile on. Rejected work is the client's to
/// retry; nothing is ever queued behind the bound, so a rejection is also
/// the *cheapest* possible outcome of an overloaded server (decode + one
/// small reply frame).
class QueryScheduler {
 public:
  struct Options {
    /// Most queries running (or posted) at once; <= 0 means "pool worker
    /// count" — one compute-bound query per core, with bursts absorbed
    /// by rejection rather than queueing.
    int max_inflight = 0;
  };

  struct Stats {
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;
    int64_t inflight = 0;
    int64_t peak_inflight = 0;
  };

  QueryScheduler(exec::ThreadPool* pool, const Options& options);

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Drains (checked: the owner must Drain() before teardown so no query
  /// can outlive the scheduler it signals completion to).
  ~QueryScheduler();

  /// Admits `query` and posts it to the pool, or rejects it with
  /// RESOURCE_EXHAUSTED without posting anything. The query body runs on
  /// some pool worker; the scheduler appends its own completion
  /// accounting after it.
  Status Submit(std::function<void()> query);

  /// Blocks until every admitted query has completed. New submissions
  /// during the drain are rejected.
  void Drain();

  Stats stats() const;
  int max_inflight() const { return max_inflight_; }

 private:
  exec::ThreadPool* const pool_;
  const int max_inflight_;

  mutable Mutex mu_;
  CondVar idle_cv_;
  int64_t inflight_ SJ_GUARDED_BY(mu_) = 0;
  int64_t peak_inflight_ SJ_GUARDED_BY(mu_) = 0;
  int64_t admitted_ SJ_GUARDED_BY(mu_) = 0;
  int64_t rejected_ SJ_GUARDED_BY(mu_) = 0;
  int64_t completed_ SJ_GUARDED_BY(mu_) = 0;
  bool draining_ SJ_GUARDED_BY(mu_) = false;
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_SCHEDULER_H_
