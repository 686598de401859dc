// Shared pieces of the repository benchmark: timing summaries, the span
// recorder behind the traced run, the order-independent match hash, and
// the report that prints every metric and the final result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/join.h"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// A timing series reduced the way every benchmark figure is reported:
/// the median, plus the highest nearest-rank percentile that still has at
/// least ten samples beyond it (tail_q = 0 when the series is too short
/// for any such percentile above the median).
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  size_t n = 0;
};
Summary Summarize(std::vector<double> samples);

/// Nearest-rank quantile of `sorted` (ascending, non-empty).
double Quantile(const std::vector<double>& sorted, double q);

/// Median and 99th percentile of an unsorted series (0 when empty).
double Median(std::vector<double> samples);
double P99(std::vector<double> samples);

/// Match count plus an order-independent 64-bit hash of the match set:
/// the same set gives the same hash whatever order a strategy emits it in.
struct MatchDigest {
  int64_t count = 0;
  uint64_t hash = 0;
};
MatchDigest Digest(const spatialjoin::JoinResult& result);

/// The matches of `result`, sorted and deduplicated.
std::vector<std::pair<int64_t, int64_t>> Normalized(
    const spatialjoin::JoinResult& result);

/// In-memory span recorder for the traced run. Spans nest on the one
/// thread that drives the benchmark: a span's parent is the span open
/// when it began, and every span carries the id of the operation (one
/// join call, one service request) it belongs to. When disabled, Scope
/// records nothing and costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t op;
    int64_t parent;  // index into spans(), or -1
    int64_t start_ns;
    int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// A fresh operation id.
  int64_t NewOperation() { return next_op_++; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Parent argument meaning "the span open on the stack, if any".
  static constexpr int64_t kCurrentParent = -2;

  /// Opens a span timed by hand (e.g. a request, from its due time) that
  /// does not nest on the stack; returns its index for Record's `parent`
  /// and for Close, or -1 when disabled.
  int64_t Open(const char* name, int64_t op, int64_t start_ns,
               int64_t parent = -1);
  void Close(int64_t index, int64_t end_ns);

  /// Records a completed span under `parent`.
  void Record(const char* name, int64_t op, int64_t start_ns, int64_t end_ns,
              int64_t parent = kCurrentParent);

  /// Self time per span name: the span's duration minus its children's.
  struct SelfTime {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<SelfTime> SelfTimes() const;

  /// Writes every span as JSON; false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

  /// Measured cost of recording one span, in ns (for the overhead
  /// estimate of the traced run).
  static double MeasureSpanCostNs();

 private:
  bool enabled_;
  int64_t next_op_ = 1;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// One metric of the catalog: its name and unit as BENCHMARK.json lists
/// them, and a line of text (what an end-to-end metric measures, or which
/// end-to-end metric a layer metric should move).
struct MetricDef {
  const char* name;
  const char* unit;
  const char* text;
};

/// Metrics and notes of one run. Print() writes a human-readable table,
/// then the single-line JSON result: every end-to-end metric in the plain
/// run, every per-layer metric in the traced run. Ungated metrics, too
/// noisy to gate on a shared host, are printed in the table only.
class Report {
 public:
  Report(std::vector<MetricDef> end_to_end, std::vector<MetricDef> ungated,
         std::vector<MetricDef> layers)
      : end_to_end_(std::move(end_to_end)),
        ungated_(std::move(ungated)),
        layers_(std::move(layers)) {}

  /// Sets a catalog metric; an unknown name is a failure of the run.
  void Set(const std::string& name, double value);
  /// A free-form line printed before the tables (configuration, sizes,
  /// correctness digests).
  void Note(const std::string& line);
  /// Records an operation outcome; a failure also records why.
  void Attempt(bool ok, const std::string& what_failed = "");
  /// Records an operation the service shed (rejected, or stopped at its
  /// deadline): not OK, so it counts in fail_frac, but it is the
  /// service's specified answer to load, not a failure of the run.
  void Shed();

  /// Prints everything and the result line. A layer metric the workload
  /// does not exercise prints as n/a and 0; a missing end-to-end metric
  /// fails the run. Returns the process exit code.
  int Print(bool traced);

 private:
  std::vector<MetricDef> end_to_end_;
  std::vector<MetricDef> ungated_;
  std::vector<MetricDef> layers_;
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t shed_ = 0;
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
