// Per-query resource attribution tests (DESIGN.md §13).
//
// The contract under test is *exactness*: with every charging call site
// inside some query's scope, charges are neither lost nor double-counted
// — each query's sink accumulates precisely its own work, at any worker
// count, even when the pool runs that query's work on other threads. The
// property test sweeps 1/2/4/8 workers with concurrent mixed queries and
// asserts per-query sums are exact and that their total matches the
// global buffer-pool counters' deltas.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace spatialjoin {
namespace {

using attribution::Charges;
using attribution::ChargePagesHit;
using attribution::ChargePagesRead;
using attribution::CurrentCharges;
using attribution::QueryCharges;
using attribution::QueryChargeScope;

TEST(AttributionScope, HooksAreNoOpsWithoutAScope) {
  ASSERT_EQ(CurrentCharges(), nullptr);
  // Nothing to observe beyond "does not crash": no sink, no charge.
  ChargePagesRead();
  ChargePagesHit(100);

  QueryCharges charges;
  {
    QueryChargeScope scope(&charges);
    ASSERT_EQ(CurrentCharges(), &charges);
    ChargePagesRead();
  }
  EXPECT_EQ(CurrentCharges(), nullptr);
  // The charge inside the scope landed; the ones outside did not.
  EXPECT_EQ(charges.Snapshot().pages_read, 1);
  EXPECT_EQ(charges.Snapshot().pages_hit, 0);
}

TEST(AttributionScope, ScopesNestAndRestore) {
  QueryCharges outer;
  QueryCharges inner;
  QueryChargeScope outer_scope(&outer);
  ChargePagesHit();
  {
    QueryChargeScope inner_scope(&inner);
    ChargePagesHit();
    ChargePagesHit();
    {
      // Null suspends attribution entirely.
      QueryChargeScope off(nullptr);
      ASSERT_EQ(CurrentCharges(), nullptr);
      ChargePagesHit();
    }
    ASSERT_EQ(CurrentCharges(), &inner);
  }
  ASSERT_EQ(CurrentCharges(), &outer);
  ChargePagesHit();
  EXPECT_EQ(outer.Snapshot().pages_hit, 2);
  EXPECT_EQ(inner.Snapshot().pages_hit, 2);
}

// The load-bearing property: N concurrent queries over a shared pool,
// each charging a deterministic amount from inside ParallelFor bodies
// (which the caller or any worker's helper may claim). Every query's
// sink must end up with exactly its own totals — no losses, no
// cross-query bleed — at every worker count.
TEST(AttributionProperty, ExactAndNonLeakingAcrossWorkerCounts) {
  for (int workers : {1, 2, 4, 8}) {
    exec::ThreadPool pool(workers);
    constexpr int kQueries = 6;

    std::vector<std::unique_ptr<QueryCharges>> sinks;
    for (int q = 0; q < kQueries; ++q) {
      sinks.push_back(std::make_unique<QueryCharges>());
    }

    // Each "query" runs on its own client thread (the service pattern:
    // one completion closure per query installs the scope, then fans out
    // intra-query work on the shared pool). Mixed sizes so queries
    // overlap unevenly and helpers actually claim work.
    std::vector<std::thread> clients;
    for (int q = 0; q < kQueries; ++q) {
      clients.emplace_back([&pool, &sinks, q] {
        const int64_t n = 64 + 32 * q;  // per-query work items
        QueryChargeScope scope(sinks[static_cast<size_t>(q)].get());
        pool.ParallelFor(n, [](int64_t i) {
          ChargePagesRead(i + 1);
          ChargePagesHit(2);
        });
      });
    }
    for (std::thread& t : clients) t.join();

    for (int q = 0; q < kQueries; ++q) {
      const int64_t n = 64 + 32 * q;
      const Charges got = sinks[static_cast<size_t>(q)]->Snapshot();
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " query=" + std::to_string(q));
      EXPECT_EQ(got.pages_read, n * (n + 1) / 2);
      EXPECT_EQ(got.pages_hit, 2 * n);
      EXPECT_GE(got.queue_wait_ns, 0);
      EXPECT_GE(got.pool_tasks, 0);
    }
  }
}

// Propagation through nested ParallelFor calls: every helper, including
// the helpers of calls made *inside* helpers, must carry the caller's
// sink, and the pool's wrapper must count each helper exactly once.
TEST(AttributionProperty, NestedParallelForPropagatesAndCountsTasks) {
  exec::ThreadPool pool(4);
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInnerPerOuter = 4;

  QueryCharges charges;
  {
    QueryChargeScope scope(&charges);
    pool.ParallelFor(kOuter, [&pool](int64_t) {
      ChargePagesHit();
      pool.ParallelFor(kInnerPerOuter, [](int64_t) { ChargePagesRead(); });
    });
  }

  const Charges got = charges.Snapshot();
  EXPECT_EQ(got.pages_hit, kOuter);
  EXPECT_EQ(got.pages_read, kOuter * kInnerPerOuter);
  // min(W, n - 1) helpers per call: 4 for the outer call, 3 for each of
  // the 8 inner ones — whether they ran on a worker or were taken back.
  EXPECT_EQ(got.pool_tasks, 4 + kOuter * 3);
  EXPECT_GE(got.queue_wait_ns, 0);
  EXPECT_TRUE(pool.Quiescent());
}

// A query that does nothing must be charged nothing, even while other
// queries hammer the same pool from other threads (the "non-leaking"
// half of the exactness contract, seen from the idle side).
TEST(AttributionProperty, IdleQueryIsChargedNothing) {
  exec::ThreadPool pool(4);
  QueryCharges busy;
  QueryCharges idle;

  QueryChargeScope idle_scope(&idle);  // main thread: idle query
  std::thread worker([&pool, &busy] {
    QueryChargeScope scope(&busy);
    pool.ParallelFor(256, [](int64_t) {
      ChargePagesRead();
      ChargePagesHit(3);
    });
  });
  worker.join();

  const Charges idle_got = idle.Snapshot();
  EXPECT_EQ(idle_got.pages_read, 0);
  EXPECT_EQ(idle_got.pages_hit, 0);
  EXPECT_EQ(idle_got.pool_tasks, 0);
  EXPECT_EQ(busy.Snapshot().pages_read, 256);
  EXPECT_EQ(busy.Snapshot().pages_hit, 3 * 256);
}

// End-to-end through a real charging call site: BufferPool hit/miss
// hooks. Per-query charges must equal the pool's own stats deltas AND
// the global registry counters' deltas — the attribution layer is a
// decomposition of the global aggregates, not a parallel bookkeeping
// that can drift.
TEST(AttributionProperty, BufferPoolChargesMatchGlobalCounters) {
  DiskManager disk(64);
  BufferPool pool(&disk, 8);  // small capacity: forces real misses
  std::vector<PageId> pages;
  for (int i = 0; i < 16; ++i) pages.push_back(pool.NewPage());
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();

  Counter* global_hits =
      MetricsRegistry::Global().GetCounter("storage.buffer_pool.hits");
  Counter* global_misses =
      MetricsRegistry::Global().GetCounter("storage.buffer_pool.misses");
  const int64_t hits_before = global_hits->Value();
  const int64_t misses_before = global_misses->Value();

  QueryCharges charges;
  {
    QueryChargeScope scope(&charges);
    // Two sweeps over 16 pages through an 8-frame pool: every access
    // misses (LRU thrashing); then re-touch the resident half for hits.
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (PageId id : pages) ASSERT_NE(pool.GetPage(id), nullptr);
    }
    std::vector<BufferPool::FrameInfo> resident = pool.ResidentFrames();
    for (const BufferPool::FrameInfo& frame : resident) {
      ASSERT_NE(pool.GetPage(frame.id), nullptr);
    }
  }

  const Charges got = charges.Snapshot();
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(got.pages_read, stats.misses);
  EXPECT_EQ(got.pages_hit, stats.hits);
  EXPECT_GT(got.pages_read, 0);
  EXPECT_GT(got.pages_hit, 0);
  // The same accesses flowed into the cumulative global counters; the
  // per-query view decomposes exactly those deltas. (Single-threaded
  // here, so no other test's accesses can interleave: gtest runs tests
  // in one process sequentially.)
  EXPECT_EQ(got.pages_read, global_misses->Value() - misses_before);
  EXPECT_EQ(got.pages_hit, global_hits->Value() - hits_before);
}

}  // namespace
}  // namespace spatialjoin
