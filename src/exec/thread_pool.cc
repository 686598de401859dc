#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "obs/attribution.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace spatialjoin {
namespace exec {

namespace {

// Pools are created freely (one per bench probe, per test, ...); a
// process-wide sequence number keeps their workers' timeline tracks
// distinguishable ("pool3.worker1").
std::atomic<int> pool_sequence{0};

}  // namespace

// One ParallelFor call, on its caller's stack. A helper touches it only
// until FinishHelper, and the caller returns only after every helper
// finished.
struct ThreadPool::ForCall {
  // Runs body(i) for each index claimed off the cursor, in cursor order;
  // returns whether it claimed any.
  bool Claim() {
    bool claimed = false;
    for (int64_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
      SJ_BOUNDED_WORK;  // at most n claims per call; the bodies poll
      ActivityScope::BeatThisThread();
      body(i);
      claimed = true;
    }
    return claimed;
  }

  const std::function<void(int64_t)>& body;
  const int64_t n;
  std::atomic<int64_t> cursor{0};
  // Helpers posted and not yet finished; guarded by the pool's mu_.
  int64_t unfinished = 0;
};

ThreadPool::ThreadPool(int num_workers)
    : pool_id_(pool_sequence.fetch_add(1, std::memory_order_relaxed)) {
  SJ_CHECK_GE(num_workers, 1);
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
               "ThreadPool destroyed with tasks outstanding — every posted "
               "task must start before teardown");
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn, const ForCall* call) {
  // Attribution propagation (obs/attribution.h): a task submitted for a
  // query runs under that query's charge sink, on whichever thread, and
  // charges it its queue wait (submit to run). Outside a query: no wrapper.
  if (attribution::QueryCharges* charges = attribution::CurrentCharges()) {
    const int64_t submit_ns = MonotonicNowNs();
    fn = [charges, submit_ns, body = std::move(fn)] {
      charges->AddQueueWait(MonotonicNowNs() - submit_ns);
      charges->AddPoolTask();
      attribution::QueryChargeScope scope(charges);
      body();
    };
  }
  {
    MutexLock lock(mu_);
    queue_.push_back({std::move(fn), call});
    ++submitted_;
  }
  work_cv_.NotifyOne();
}

void ThreadPool::FinishHelper(ForCall* call, bool claimed) {
  MutexLock lock(mu_);
  if (claimed) ++stolen_;
  // Notify under the lock: the caller may return, and its ForCall die, as
  // soon as it sees zero.
  if (--call->unfinished == 0) done_cv_.NotifyAll();
}

void ThreadPool::WorkerLoop(int self) {
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
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) {
        ScopedSpan park("pool.park", "park");
        activity.SetIdle(true);
        work_cv_.Wait(mu_);
        activity.SetIdle(false);
      }
      if (stop_) return;
      task = std::move(queue_.front().fn);
      queue_.pop_front();
      ++executed_;
    }
    // Heartbeat per task; a ParallelFor helper beats again per claimed
    // index. A task that never returns is the stall the watchdog exists
    // to catch.
    activity.Beat();
    ScopedSpan span("pool.task", "run");
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  ForCall call{body, n};
  // W == 1 or n <= 1: no helpers, and the caller claims every index.
  const int64_t helpers =
      num_workers() > 1 ? std::clamp<int64_t>(n - 1, 0, num_workers()) : 0;
  call.unfinished = helpers;
  for (int64_t h = 0; h < helpers; ++h) {
    SJ_BOUNDED_WORK;  // at most W helpers
    Submit([this, &call] { FinishHelper(&call, call.Claim()); }, &call);
  }
  call.Claim();
  if (helpers == 0) return;

  // The cursor passed n: take this call's unstarted helpers back and run
  // them here, where each claims nothing.
  std::vector<std::function<void()>> taken;
  {
    MutexLock lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      SJ_BOUNDED_WORK;  // one scan of the queue: <= W helpers per running
                        // ParallelFor plus the admitted posted queries
      if (it->call != &call) {
        ++it;
        continue;
      }
      taken.push_back(std::move(it->fn));
      it = queue_.erase(it);
      ++executed_;
    }
  }
  for (const std::function<void()>& helper : taken) {
    SJ_BOUNDED_WORK;  // at most W helpers, each claiming nothing
    helper();
  }

  // What is left runs claimed bodies on workers.
  MutexLock lock(mu_);
  while (call.unfinished != 0) {
    SJ_BOUNDED_WORK;  // exits when the running helpers finish their claims
    done_cv_.Wait(mu_);
  }
}

void ThreadPool::Post(std::function<void()> fn) {
  Submit(std::move(fn), nullptr);
}

ThreadPool::Stats ThreadPool::stats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.workers = num_workers();
  stats.tasks_submitted = submitted_;
  stats.tasks_executed = executed_;
  stats.tasks_stolen = stolen_;
  stats.tasks_queued = static_cast<int64_t>(queue_.size());
  return stats;
}

bool ThreadPool::Quiescent() const {
  Stats snapshot = stats();
  return snapshot.tasks_queued == 0 &&
         snapshot.tasks_submitted == snapshot.tasks_executed;
}

}  // namespace exec
}  // namespace spatialjoin
