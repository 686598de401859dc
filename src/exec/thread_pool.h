#ifndef SPATIALJOIN_EXEC_THREAD_POOL_H_
#define SPATIALJOIN_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spatialjoin {
namespace exec {

/// Fixed-size thread pool — the substrate of the parallel execution layer
/// (DESIGN.md §7). The workers drain one FIFO task queue under one mutex.
/// `Post` queues whole queries (the query service); `ParallelFor` spreads
/// one loop over the workers and its calling thread.
///
/// ParallelFor claims, it does not spawn. `ParallelFor(n, body)` posts at
/// most min(W, n - 1) helper tasks (W = `num_workers()`); the helpers and
/// the caller take indices from one atomic cursor. The contract:
///  * Exactly once: `body(i)` runs exactly once for each i in [0, n), and
///    every run happens-before the return.
///  * A caller alone runs in order: a caller that no worker helps claims
///    every index in index order.
///  * W == 1 or n <= 1 runs inline and posts nothing.
///  * Take back, never wait on the queue: once the cursor passes n, the
///    caller takes its own unstarted helpers back out of the queue and
///    runs them inline, where each claims nothing. It then waits only for
///    helpers that are running claimed bodies on workers. So the caller
///    never runs a task it did not post and never waits on a queued task,
///    and a ParallelFor inside a posted task cannot deadlock, even with
///    every worker busy.
///  * Quiescent on return: no task of the call is queued or running.
///  * Counts repeat exactly: a call with W > 1 and n > 1 submits and
///    executes exactly min(W, n - 1) tasks; a taken-back helper counts as
///    executed.
///  * Each claimed index beats the claiming thread's watchdog activity.
///
/// Scheduling is nondeterministic, so callers that need deterministic
/// output write into pre-sized per-index slots and merge in index order —
/// the pattern of ParallelTreeJoin and PartitionedJoin, whose results are
/// bit-identical across worker counts. Neighbouring indices run on
/// different threads at once: pad such slots to a cache line.
///
/// Tasks must not throw: the engine's failure mode is SJ_CHECK (abort),
/// and an exception escaping a task terminates the process.
class ThreadPool {
 public:
  /// Introspection snapshot, consumed by audit::AuditThreadPool, STATS and
  /// the parallel benches; taken under the queue mutex. `tasks_executed`
  /// counts tasks taken off the queue, by a worker or by a ParallelFor
  /// caller taking its helpers back. `tasks_stolen` counts ParallelFor
  /// helpers that claimed at least one index, i.e. took work off their
  /// caller; it never exceeds `tasks_executed`.
  struct Stats {
    int workers = 0;
    int64_t tasks_submitted = 0;
    int64_t tasks_executed = 0;
    int64_t tasks_stolen = 0;
    int64_t tasks_queued = 0;
  };

  /// Spawns `num_workers` (>= 1) worker threads.
  explicit ThreadPool(int num_workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins the workers; a task still queued is a checked error.
  ~ThreadPool();

  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Runs `body(i)` for every i in [0, n) on the caller and at most
  /// min(W, n - 1) helpers; returns when all completed (see the contract
  /// above).
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

  /// Fire-and-forget: queues `fn` with no completion handle. The query
  /// service posts whole queries; a query may call ParallelFor on the
  /// same pool. SJ_BLOCKING: posting takes the queue mutex and wakes a
  /// sleeper — never call it with a caller-side Mutex held (DESIGN.md §9).
  SJ_BLOCKING void Post(std::function<void()> fn);

  /// Consistent snapshot of the pool's counters and queue length.
  Stats stats() const;

  /// True iff nothing is queued and every submitted task was taken off
  /// the queue — the pool's steady-state invariant between queries
  /// (audited by audit::AuditThreadPool).
  bool Quiescent() const;

 private:
  struct ForCall;

  struct Task {
    std::function<void()> fn;
    // The ParallelFor call that posted this helper; null for Post.
    const ForCall* call = nullptr;
  };

  // Queues `fn` and wakes one sleeper. SJ_BLOCKING for the same reason as
  // Post.
  SJ_BLOCKING void Submit(std::function<void()> fn, const ForCall* call);

  // A helper's last step: counts it as stolen if it claimed an index and
  // wakes its caller once the call's last helper finished.
  void FinishHelper(ForCall* call, bool claimed);

  void WorkerLoop(int self);

  // Process-wide pool sequence number; names the workers' trace tracks.
  const int pool_id_;

  mutable Mutex mu_;
  CondVar work_cv_;  // a task was queued, or stop_
  CondVar done_cv_;  // a ParallelFor call's last helper finished
  std::deque<Task> queue_ SJ_GUARDED_BY(mu_);
  bool stop_ SJ_GUARDED_BY(mu_) = false;
  int64_t submitted_ SJ_GUARDED_BY(mu_) = 0;
  int64_t executed_ SJ_GUARDED_BY(mu_) = 0;
  int64_t stolen_ SJ_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> threads_;  // after what the workers use
};

}  // namespace exec
}  // namespace spatialjoin

#endif  // SPATIALJOIN_EXEC_THREAD_POOL_H_
