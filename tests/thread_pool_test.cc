#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/exec_audit.h"
#include "common/mutex.h"
#include "exec/thread_pool.h"

namespace spatialjoin {
namespace exec {
namespace {

// Holds `count` workers in posted tasks until Release(); the constructor
// returns once every one of them is held.
class WorkerBlocker {
 public:
  WorkerBlocker(ThreadPool* pool, int count)
      : state_(std::make_shared<State>()) {
    for (int i = 0; i < count; ++i) {
      pool->Post([state = state_] {
        MutexLock lock(state->mu);
        ++state->held;
        state->cv.NotifyAll();
        while (!state->released) state->cv.Wait(state->mu);
      });
    }
    MutexLock lock(state_->mu);
    while (state_->held != count) state_->cv.Wait(state_->mu);
  }
  ~WorkerBlocker() { Release(); }

  void Release() {
    MutexLock lock(state_->mu);
    state_->released = true;
    state_->cv.NotifyAll();
  }

 private:
  struct State {
    Mutex mu;
    CondVar cv;
    int held = 0;
    bool released = false;
  };
  std::shared_ptr<State> state_;
};

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    ThreadPool pool(workers);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&hits](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " with " << workers << " workers";
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleton) {
  ThreadPool pool(2);
  int64_t calls = 0;
  pool.ParallelFor(0, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller — safe to touch caller-local state.
  pool.ParallelFor(1, [&calls](int64_t i) { calls += 10 + i; });
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPoolTest, PostRunsEveryTaskOnAWorker) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  const std::thread::id caller = std::this_thread::get_id();
  Mutex mu;
  CondVar cv;
  int done = 0;
  int on_caller = 0;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&, caller] {
      MutexLock lock(mu);
      on_caller += std::this_thread::get_id() == caller ? 1 : 0;
      if (++done == kTasks) cv.NotifyAll();
    });
  }
  {
    MutexLock lock(mu);
    while (done != kTasks) cv.Wait(mu);
    EXPECT_EQ(on_caller, 0);
  }
  EXPECT_TRUE(pool.Quiescent());
  EXPECT_EQ(pool.stats().tasks_executed, kTasks);
  EXPECT_EQ(pool.stats().tasks_stolen, 0);
}

TEST(ThreadPoolTest, StatsConserveTasks) {
  ThreadPool pool(3);
  pool.ParallelFor(500, [](int64_t) {});
  ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.workers, 3);
  EXPECT_TRUE(pool.Quiescent());
  EXPECT_EQ(stats.tasks_submitted, stats.tasks_executed);
  EXPECT_EQ(stats.tasks_queued, 0);
  EXPECT_LE(stats.tasks_stolen, stats.tasks_executed);
}

TEST(ThreadPoolTest, AuditPassesOnQuiescentPool) {
  ThreadPool pool(2);
  pool.ParallelFor(64, [](int64_t) {});
  audit::AuditReport report = audit::AuditThreadPool(pool);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(report.checks_run(), 4);
}

TEST(ThreadPoolTest, ConcurrentParallelForsFromManyThreads) {
  // External threads sharing one pool: each runs its own ParallelFor and
  // must see exactly its own indices covered.
  ThreadPool pool(4);
  constexpr int kClients = 4;
  constexpr int64_t kN = 300;
  std::vector<std::vector<std::atomic<int>>> hits(kClients);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &hits, c] {
      pool.ParallelFor(kN, [&hits, c](int64_t i) {
        hits[static_cast<size_t>(c)][static_cast<size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(c)][static_cast<size_t>(i)].load(),
                1)
          << "client " << c << " index " << i;
    }
  }
  EXPECT_TRUE(pool.Quiescent());
}

TEST(ThreadPoolTest, ParallelForSubmitsExactlyTheHelpersItNeeds) {
  // min(W, n - 1) helpers per call with W > 1 and n > 1, none otherwise;
  // every helper is executed (run or taken back) before the call returns.
  for (int workers : {1, 2, 4, 8}) {
    ThreadPool pool(workers);
    for (int64_t n : {0, 1, 2, 3, 5, 9, 100}) {
      const ThreadPool::Stats before = pool.stats();
      std::atomic<int64_t> sum{0};
      pool.ParallelFor(n, [&sum](int64_t i) { sum.fetch_add(i); });
      const ThreadPool::Stats after = pool.stats();
      const int64_t helpers =
          workers > 1 && n > 1 ? std::min<int64_t>(workers, n - 1) : 0;
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " n=" + std::to_string(n));
      EXPECT_EQ(sum.load(), n * (n - 1) / 2);
      EXPECT_EQ(after.tasks_submitted - before.tasks_submitted, helpers);
      EXPECT_EQ(after.tasks_executed - before.tasks_executed, helpers);
      EXPECT_LE(after.tasks_stolen - before.tasks_stolen, helpers);
      EXPECT_LE(after.tasks_stolen, after.tasks_executed);
      EXPECT_TRUE(pool.Quiescent());
    }
  }
}

TEST(ThreadPoolTest, CallerNeverRunsATaskItDidNotPost) {
  // Every worker is held and F is queued behind them: the caller must run
  // every index itself, in order, take its helpers back (they claim
  // nothing) and leave F queued for a worker.
  ThreadPool pool(2);
  WorkerBlocker blocker(&pool, 2);
  const std::thread::id caller = std::this_thread::get_id();
  Mutex mu;
  CondVar cv;
  bool f_ran = false;
  std::thread::id f_thread;
  pool.Post([&] {
    MutexLock lock(mu);
    f_ran = true;
    f_thread = std::this_thread::get_id();
    cv.NotifyAll();
  });
  const ThreadPool::Stats before = pool.stats();
  std::vector<int64_t> order;
  std::vector<std::thread::id> threads;
  pool.ParallelFor(50, [&](int64_t i) {
    MutexLock lock(mu);
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  const ThreadPool::Stats after = pool.stats();
  {
    MutexLock lock(mu);
    EXPECT_FALSE(f_ran);
    ASSERT_EQ(order.size(), 50u);
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<int64_t>(i));
      EXPECT_EQ(threads[i], caller) << "index " << i;
    }
  }
  EXPECT_EQ(after.tasks_queued, 1);  // F
  EXPECT_EQ(after.tasks_submitted - before.tasks_submitted, 2);
  EXPECT_EQ(after.tasks_executed - before.tasks_executed, 2);
  EXPECT_EQ(after.tasks_stolen, 0);

  blocker.Release();
  MutexLock lock(mu);
  while (!f_ran) cv.Wait(mu);
  EXPECT_NE(f_thread, caller);
  EXPECT_TRUE(pool.Quiescent());
}

TEST(ThreadPoolTest, CallerWaitingForAHelperRunsNoForeignTask) {
  // One worker is held; the other runs a helper that claimed an index and
  // stays in its body while F is queued. The caller, done with its own
  // index, waits for that helper and must not run F meanwhile.
  ThreadPool pool(2);
  WorkerBlocker blocker(&pool, 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_claimed{false};
  std::atomic<bool> f_posted{false};
  std::atomic<bool> f_on_caller{false};
  std::atomic<bool> f_ran{false};
  pool.ParallelFor(2, [&](int64_t) {
    if (std::this_thread::get_id() != caller) {
      helper_claimed = true;
      while (!f_posted) std::this_thread::yield();
      // Long enough for the caller to reach its wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return;
    }
    // Hold this index until the helper has claimed the other one.
    while (!helper_claimed) std::this_thread::yield();
    pool.Post([&] {
      f_on_caller = std::this_thread::get_id() == caller;
      f_ran = true;
    });
    f_posted = true;
  });
  EXPECT_FALSE(f_on_caller.load());
  EXPECT_EQ(pool.stats().tasks_stolen, 1);

  blocker.Release();
  while (!f_ran) std::this_thread::yield();
  EXPECT_FALSE(f_on_caller.load());
  EXPECT_TRUE(pool.Quiescent());
}

TEST(ThreadPoolTest, NestedParallelForsInPostedTasksComplete) {
  // More posted tasks than workers, each fanning out on the same pool.
  ThreadPool pool(2);
  constexpr int kPosted = 4;
  constexpr int64_t kN = 100;
  std::vector<std::atomic<int>> hits(kPosted * kN);
  Mutex mu;
  CondVar cv;
  int done = 0;
  for (int t = 0; t < kPosted; ++t) {
    const int64_t base = t * kN;
    pool.Post([&, base] {
      pool.ParallelFor(kN, [&hits, base](int64_t i) {
        hits[static_cast<size_t>(base + i)].fetch_add(1);
      });
      MutexLock lock(mu);
      if (++done == kPosted) cv.NotifyAll();
    });
  }
  {
    MutexLock lock(mu);
    while (done != kPosted) cv.Wait(mu);
  }
  for (size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "task " << k / kN << " index " << k % kN;
  }
  EXPECT_TRUE(pool.Quiescent());
}

}  // namespace
}  // namespace exec
}  // namespace spatialjoin
