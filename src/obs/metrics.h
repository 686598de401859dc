#ifndef SPATIALJOIN_OBS_METRICS_H_
#define SPATIALJOIN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "common/analysis_annotations.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spatialjoin {

/// Process-wide metrics for the spatial-join engine.
///
/// The paper prices every strategy in two currencies — page accesses and
/// Θ/θ evaluations — so the engine's layers emit exactly those events
/// here, in addition to their existing per-instance stat structs
/// (`IoStats`, `BufferPoolStats`, …), which remain the per-object views.
/// The registry is the cross-cutting aggregate that benches serialize to
/// `*.metrics.json`; per-query views come from attribution
/// (obs/attribution.h).
///
/// Naming convention (dot-separated, lowercase):
///   storage.disk.page_reads / page_writes / pages_allocated
///   storage.buffer_pool.hits / misses / evictions
///   storage.heap_file.inserts / reads / deletes
///   query.join.count / matches, query.join.strategy.<name>
///   query.select.count / matches
///   planner.plans / sample_theta_tests, planner.chosen.<strategy>
/// Histograms: query.join.wall_ns, query.select.wall_ns.
///
/// Thread-safety: increments are relaxed atomics (lock-free); counters
/// additionally shard their cells per thread so the exec layer's workers
/// do not contend on one cache line. Name → instrument registration takes
/// a mutex once per call site (call sites cache the returned pointer,
/// which stays valid for the process lifetime — `ResetAll()` zeroes
/// values but never unregisters).

/// Monotonic event count. Increments land in a per-thread cell (threads
/// are assigned cells round-robin; each cell occupies its own cache
/// line), and `Value()` merges the cells. A merge that races with
/// increments sees some prefix of them — exact totals require quiescence,
/// which is when benches and snapshots read.
class Counter {
 public:
  /// Cells per counter; more threads than this share cells (still
  /// correct, just contended).
  static constexpr int kShards = 16;

  void Increment(int64_t delta = 1) {
    cells_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& cell : cells_) {
      SJ_BOUNDED_WORK;  // kShards cells
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };

  /// The calling thread's cell index (assigned once per thread,
  /// process-wide, so a thread uses the same cell in every counter).
  static int ShardIndex();

  Cell cells_[kShards];
};

/// Last-write-wins instantaneous value (e.g. a pool's resident pages).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2 bucket geometry shared by Histogram and WindowedHistogram:
/// bucket b >= 1 covers [2^(b-1), 2^b - 1]; bucket 0 holds values <= 0.
int HistogramBucketOf(int64_t value);
int64_t HistogramBucketUpper(int bucket);

/// Log-scale (power-of-two bucket) histogram for latencies and sizes.
/// Bucket b >= 1 covers [2^(b-1), 2^b - 1]; bucket 0 holds values <= 0.
/// Quantiles are estimated as the upper bound of the covering bucket, so
/// they are exact to within a factor of 2 — the right resolution for the
/// orders-of-magnitude comparisons the cost model makes.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const;
  int64_t max() const;
  double mean() const;
  int64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket containing the q-quantile (0 <= q <= 1);
  /// 0 when empty.
  int64_t QuantileUpperBound(double q) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets]{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{0};
  std::atomic<int64_t> max_{0};
};

/// Rolling time-windowed log2 histogram: the same bucket geometry as
/// Histogram, but observations age out after `num_slices * slice_ns`.
/// The service layer uses these for live p50/p99 over the last few
/// seconds — a cumulative Histogram would let the first minute of a
/// server's life dominate its quantiles forever.
///
/// Implementation: a ring of time slices, each a full bucket array plus
/// an epoch tag (`now_ns / slice_ns`). A recorder landing on a slice
/// whose epoch is stale claims it via CAS to a "resetting" sentinel,
/// zeroes it, and publishes the new epoch; racers that catch a slice
/// mid-recycle drop their observation (bounded loss: a handful of
/// observations per slice turnover, never a stale count bleeding into
/// the window). `Record` takes the timestamp explicitly so tests drive
/// the clock deterministically.
///
/// Deliberately NOT a MetricsRegistry instrument: windowed quantiles
/// are live-introspection data (STATS), and keeping them out of the
/// registry keeps bench `*.metrics.json` artifacts byte-stable.
class WindowedHistogram {
 public:
  /// Merged view of the slices still inside the window at snapshot time.
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t window_ns = 0;  ///< nominal window span (slices * slice_ns)
    int64_t buckets[Histogram::kBuckets] = {};

    /// Same estimator as Histogram::QuantileUpperBound; 0 when empty.
    int64_t QuantileUpperBound(double q) const;
    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  WindowedHistogram(int num_slices, int64_t slice_ns);

  void Record(int64_t value, int64_t now_ns);
  Snapshot Snap(int64_t now_ns) const;
  void Reset();

  int64_t window_ns() const { return num_slices_ * slice_ns_; }

 private:
  struct alignas(64) Slice {
    /// Epoch this slice's counts belong to; kNeverUsed when untouched,
    /// kResetting while a recycler is zeroing it.
    std::atomic<int64_t> epoch{-1};
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> buckets[Histogram::kBuckets]{};
  };
  static constexpr int64_t kNeverUsed = -1;
  static constexpr int64_t kResetting = -2;

  const int num_slices_;
  const int64_t slice_ns_;
  std::unique_ptr<Slice[]> slices_;
};

/// Named instrument registry; see the file comment for the conventions.
class MetricsRegistry {
 public:
  /// The process-wide registry every engine layer emits into.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Current value of a counter, 0 if it was never registered (reads do
  /// not create instruments).
  int64_t CounterValue(const std::string& name) const;

  /// Name → value snapshot of every registered counter (one lock for the
  /// name map, lock-free merges for the values). The flight recorder's
  /// watchdog diffs successive snapshots into the dump's `metrics.deltas`
  /// section, so a post-mortem shows what the engine was *doing* in its
  /// last few hundred milliseconds, not just cumulative totals.
  std::map<std::string, int64_t> CounterSnapshot() const;

  /// Zeroes every instrument (registrations survive; cached pointers stay
  /// valid). Tests and benches use this to start measurements clean.
  void ResetAll();

  /// Serializes all instruments as one JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Instruments appear in name order (std::map), so output is
  /// deterministic for a given set of registrations.
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

 private:
  // Get-or-create under mu_, shared by the three public getters. The
  // returned pointer outlives the lock by design: instruments are
  // internally atomic and never unregistered (see the class comment).
  template <typename Instrument>
  Instrument* GetOrCreateLocked(
      std::map<std::string, std::unique_ptr<Instrument>>* instruments,
      const std::string& name) SJ_REQUIRES(mu_) {
    auto& slot = (*instruments)[name];
    if (!slot) slot = std::make_unique<Instrument>();
    return slot.get();
  }

  // mu_ guards the name → instrument maps (registration and iteration).
  // The instruments themselves are lock-free; values read while threads
  // are still incrementing are prefix-consistent, not exact.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SJ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SJ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SJ_GUARDED_BY(mu_);
};

}  // namespace spatialjoin

#endif  // SPATIALJOIN_OBS_METRICS_H_
