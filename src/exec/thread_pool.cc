#include "exec/thread_pool.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "obs/attribution.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace spatialjoin {
namespace exec {

namespace {

// Worker identity of the current thread, so Submit from inside a task
// pushes onto the calling worker's own deque (LIFO locality) and helping
// threads are distinguishable from workers in the steal accounting.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

// Pools are created freely (one per bench probe, per test, ...); a
// process-wide sequence number keeps their workers' timeline tracks
// distinguishable ("pool3.worker1").
std::atomic<int> pool_sequence{0};

}  // namespace

ThreadPool::ThreadPool(int num_workers)
    : pool_id_(pool_sequence.fetch_add(1, std::memory_order_relaxed)) {
  SJ_CHECK_GE(num_workers, 1);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (!Quiescent()) {
    // Structured record first: the SJ_CHECK below aborts, and the flight
    // dump's event tail should say which pool died with what backlog.
    Stats snapshot = stats();
    SJ_EVENT(kPoolAnomaly, kError,
             "pool%d torn down with tasks outstanding "
             "(submitted %lld, executed %lld, queued %lld)",
             pool_id_, static_cast<long long>(snapshot.tasks_submitted),
             static_cast<long long>(snapshot.tasks_executed),
             static_cast<long long>(snapshot.tasks_queued));
  }
  SJ_CHECK_MSG(Quiescent(),
               "ThreadPool destroyed with tasks outstanding — join every "
               "TaskGroup before teardown");
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Attribution propagation (obs/attribution.h): a task spawned while
  // working for a query carries that query's charge sink, so the body
  // charges the right query no matter which worker (or helping caller)
  // ends up running it. The wrapper also charges the task's queue wait —
  // submit to run — to the same query; tasks submitted outside any query
  // scope skip the wrapper entirely (no clock read, no capture).
  if (attribution::QueryCharges* charges = attribution::CurrentCharges()) {
    const int64_t submit_ns = MonotonicNowNs();
    fn = [charges, submit_ns, body = std::move(fn)] {
      charges->AddQueueWait(MonotonicNowNs() - submit_ns);
      charges->AddPoolTask();
      attribution::QueryChargeScope scope(charges);
      body();
    };
  }
  size_t target;
  if (tls_pool == this && tls_worker >= 0) {
    target = static_cast<size_t>(tls_worker);
  } else {
    target = static_cast<size_t>(next_queue_.fetch_add(
                 1, std::memory_order_relaxed)) %
             workers_.size();
  }
  {
    Worker& worker = *workers_[target];
    MutexLock lock(worker.mu);
    worker.tasks.push_back(std::move(fn));
  }
  {
    MutexLock lock(wake_mu_);
    ++work_epoch_;
  }
  wake_cv_.NotifyOne();
}

bool ThreadPool::RunOneTask(int self) {
  std::function<void()> task;
  bool stole = false;
  const int width = num_workers();
  if (self >= 0) {
    Worker& own = *workers_[static_cast<size_t>(self)];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      // Owner takes the back: the most recently pushed — and most likely
      // cache-resident — task.
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    const int start =
        self >= 0 ? (self + 1) % width
                  : static_cast<int>(next_queue_.fetch_add(
                                         1, std::memory_order_relaxed) %
                                     static_cast<uint64_t>(width));
    for (int i = 0; i < width && !task; ++i) {
      SJ_BOUNDED_WORK;  // one steal scan over the fixed worker set
      const int victim = (start + i) % width;
      if (victim == self) continue;
      Worker& worker = *workers_[static_cast<size_t>(victim)];
      MutexLock lock(worker.mu);
      if (!worker.tasks.empty()) {
        // Thieves take the front: the oldest pending task.
        task = std::move(worker.tasks.front());
        worker.tasks.pop_front();
      }
    }
    if (task) {
      stole = true;
      stolen_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!task) return false;
  // Account *before* running: a task's completion signal (the TaskGroup
  // decrement inside the closure) must not become observable while the
  // pool's counters still lag, or a caller that joined every group could
  // race the destructor's Quiescent() check.
  executed_.fetch_add(1, std::memory_order_relaxed);
  {
    // Distinct categories let timeline views color owned work vs. stolen
    // work per worker track (helping callers show up on their own track).
    ScopedSpan span("pool.task", stole ? "steal" : "run");
    // Heartbeat per task, on whichever thread runs it — workers and
    // helping callers alike. A task that never returns is the stall the
    // watchdog exists to catch; the beat pins the stall onset to the
    // task boundary.
    ActivityScope::BeatThisThread();
    task();
  }
  return true;
}

void ThreadPool::WorkerLoop(int self) {
  tls_pool = this;
  tls_worker = self;
  char label[32];
  std::snprintf(label, sizeof(label), "pool%d.worker%d", pool_id_, self);
  Tracing::SetThreadName(label);
  // Register with the flight recorder: the watchdog treats a busy worker
  // whose heartbeat goes stale as a stuck task. Kind/label must be static
  // strings (read from the signal path); the per-worker identity goes in
  // the copied detail field instead.
  ActivityScope activity("pool.worker", "worker");
  activity.SetDetail(label);
  while (true) {
    uint64_t epoch;
    {
      MutexLock lock(wake_mu_);
      if (stop_) return;
      epoch = work_epoch_;
    }
    activity.Beat();
    if (RunOneTask(self)) continue;
    // All deques were empty at scan time; sleep until a submission bumps
    // the epoch (a submission racing the scan already bumped it, so the
    // loop condition is immediately false and no wakeup is missed).
    ScopedSpan park("pool.park", "park");
    {
      // Parking with work still in our own deque means the scan and the
      // epoch protocol disagree. A submission between our scan and this
      // check makes it fire spuriously (Submit pushes before it bumps the
      // epoch), so the record stays at info severity: visible in dumps,
      // never echoed.
      MutexLock own_lock(workers_[static_cast<size_t>(self)]->mu);
      if (!workers_[static_cast<size_t>(self)]->tasks.empty()) {
        SJ_EVENT(kPoolAnomaly, kInfo,
                 "%s parking with %lld tasks in its own deque", label,
                 static_cast<long long>(
                     workers_[static_cast<size_t>(self)]->tasks.size()));
      }
    }
    activity.SetIdle(true);
    MutexLock lock(wake_mu_);
    while (!stop_ && work_epoch_ == epoch) wake_cv_.Wait(wake_mu_);
    activity.SetIdle(false);
    if (stop_) return;
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  if (num_workers() == 1 || n == 1) {
    // Degenerate widths run inline: same invocation set, zero scheduling
    // overhead, and exactly the sequential execution order.
    for (int64_t i = 0; i < n; ++i) {
      SJ_BOUNDED_WORK;  // runs the caller's body; query-path bodies poll
      body(i);
    }
    return;
  }
  TaskGroup group(this);
  for (int64_t i = 0; i < n; ++i) {
    SJ_BOUNDED_WORK;  // one Spawn per index; the spawned bodies poll
    group.Spawn([&body, i] { body(i); });
  }
  group.Wait();
}

ThreadPool::TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool), sync_(std::make_shared<Sync>()) {
  SJ_CHECK(pool != nullptr);
}

ThreadPool::TaskGroup::~TaskGroup() { Wait(); }

void ThreadPool::TaskGroup::Spawn(std::function<void()> fn) {
  {
    MutexLock lock(sync_->mu);
    ++sync_->pending;
  }
  pool_->Submit([sync = sync_, fn = std::move(fn)] {
    fn();
    MutexLock lock(sync->mu);
    if (--sync->pending == 0) sync->cv.NotifyAll();
  });
}

void ThreadPool::TaskGroup::Wait() {
  const int self = tls_pool == pool_ ? tls_worker : -1;
  while (true) {
    SJ_BOUNDED_WORK;  // exits when pending==0; the tasks it helps run poll
    {
      MutexLock lock(sync_->mu);
      if (sync_->pending == 0) return;
    }
    // Help: run pending pool tasks (ours or anyone's) instead of blocking.
    if (pool_->RunOneTask(self)) continue;
    // Nothing runnable — our stragglers are in flight on other threads.
    // The timed wait re-checks for helpable work in case new tasks land.
    MutexLock lock(sync_->mu);
    if (sync_->pending != 0) {
      // Timeout vs notify is immaterial here: either way the loop
      // re-scans for helpable work and re-tests pending.
      (void)sync_->cv.WaitFor(sync_->mu, std::chrono::milliseconds(1));
    }
    if (sync_->pending == 0) return;
  }
}

void ThreadPool::Post(std::function<void()> fn) { Submit(std::move(fn)); }

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.workers = num_workers();
  stats.tasks_submitted = submitted_.load(std::memory_order_relaxed);
  stats.tasks_executed = executed_.load(std::memory_order_relaxed);
  stats.tasks_stolen = stolen_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    SJ_BOUNDED_WORK;  // one size() read per worker (fixed pool width)
    MutexLock lock(worker->mu);
    stats.tasks_queued += static_cast<int64_t>(worker->tasks.size());
  }
  return stats;
}

bool ThreadPool::Quiescent() const {
  Stats snapshot = stats();
  return snapshot.tasks_queued == 0 &&
         snapshot.tasks_submitted == snapshot.tasks_executed;
}

}  // namespace exec
}  // namespace spatialjoin
