#ifndef SPATIALJOIN_EXEC_THREAD_POOL_H_
#define SPATIALJOIN_EXEC_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spatialjoin {
namespace exec {

/// Fixed-size work-stealing thread pool — the substrate of the parallel
/// execution layer (DESIGN.md §7).
///
/// Each worker owns a deque: the owner pushes and pops at the back (LIFO,
/// cache-friendly for recursively spawned work), idle workers steal from
/// the front of a victim's deque (FIFO, so thieves take the oldest —
/// typically largest — pending task). A thread calling `Wait` or
/// `ParallelFor` participates in execution ("helping"), so a pool is never
/// deadlocked by its own caller and a 1-worker pool still makes progress
/// while the caller waits.
///
/// Determinism contract: `ParallelFor(n, body)` invokes `body(i)` exactly
/// once for every i in [0, n) and returns only after all invocations
/// completed (with a happens-before edge to the caller). *Scheduling* is
/// nondeterministic, so callers that need deterministic output write into
/// pre-sized per-index slots and merge in index order — the pattern used
/// by ParallelTreeJoin and PartitionedJoin, which makes their results
/// bit-identical across worker counts.
///
/// Tasks must not throw: the engine's failure mode is SJ_CHECK (abort),
/// and an exception escaping a task terminates the process.
class ThreadPool {
 public:
  /// Introspection snapshot, consumed by audit::AuditThreadPool and the
  /// parallel benches. `tasks_executed` counts tasks dequeued and
  /// launched (the counter is bumped before the task body runs, so it is
  /// already up to date when the task signals its TaskGroup).
  /// `tasks_stolen` counts executed tasks that were taken from another
  /// worker's deque (helping by non-worker threads counts as stealing
  /// too).
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

  /// Drains nothing: outstanding tasks are completed before teardown
  /// (destruction while a TaskGroup is still running is a checked error).
  ~ThreadPool();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs `body(i)` for every i in [0, n), distributing indices over the
  /// workers plus the calling thread; returns when all completed. With a
  /// single worker (or n <= 1) the body runs inline on the caller, in
  /// index order.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

  /// Fire-and-forget: enqueues `fn` with no completion handle — the
  /// caller owns its own completion signalling. This is how the query
  /// service schedules whole queries onto the pool (inter-query
  /// parallelism); the query body may itself call ParallelFor on the same
  /// pool (intra-query parallelism) — a worker waiting at that inner
  /// barrier helps run other pending tasks, including other posted
  /// queries, so the pool is never deadlocked by nesting. Like all pool
  /// tasks, `fn` must not throw. SJ_BLOCKING: posting contends on a
  /// worker deque mutex and wakes a sleeper — never call it with a
  /// caller-side Mutex held (DESIGN.md §9).
  SJ_BLOCKING void Post(std::function<void()> fn);

  /// A joinable batch of independently spawned tasks.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool);
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    /// Waits for stragglers (checked: Wait() should be called explicitly).
    ~TaskGroup();

    /// Enqueues `fn` onto the pool.
    void Spawn(std::function<void()> fn);

    /// Blocks until every spawned task completed, executing pending pool
    /// tasks while waiting.
    void Wait();

   private:
    // Shared with the spawned closures so a completing task can signal
    // safely even if the waiter returns (and the group dies) the moment
    // the count hits zero.
    struct Sync {
      Mutex mu;
      CondVar cv;
      int64_t pending SJ_GUARDED_BY(mu) = 0;
    };

    ThreadPool* pool_;
    std::shared_ptr<Sync> sync_;
  };

  /// Consistent snapshot of the pool's counters and queue occupancy.
  Stats stats() const;

  /// True iff no task is queued or in flight — the pool's steady-state
  /// invariant between queries (audited by audit::AuditThreadPool).
  bool Quiescent() const;

 private:
  struct Worker {
    Mutex mu;
    std::deque<std::function<void()>> tasks SJ_GUARDED_BY(mu);
  };

  // Pushes onto a deque (the calling worker's own when called from inside
  // the pool, else round-robin) and wakes one sleeper. SJ_BLOCKING for
  // the same reason as Post.
  SJ_BLOCKING void Submit(std::function<void()> fn);

  // Executes one pending task if any is available. `self` is the calling
  // worker's index, or -1 for an external helping thread. Returns false
  // when every deque was empty.
  bool RunOneTask(int self);

  void WorkerLoop(int self);

  // Process-wide pool sequence number; names the workers' trace tracks.
  const int pool_id_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  Mutex wake_mu_;
  CondVar wake_cv_;
  bool stop_ SJ_GUARDED_BY(wake_mu_) = false;
  // Bumped on every Submit (under wake_mu_): lets a worker that found all
  // deques empty sleep without missing a submission that raced its scan.
  uint64_t work_epoch_ SJ_GUARDED_BY(wake_mu_) = 0;

  std::atomic<uint64_t> next_queue_{0};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> stolen_{0};
};

}  // namespace exec
}  // namespace spatialjoin

#endif  // SPATIALJOIN_EXEC_THREAD_POOL_H_
