#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).median;
}

double P99(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return Quantile(samples, 0.99);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = Quantile(samples, 0.5);
  // Highest percentile with >= 10 samples above it: q = 1 - 10/n, kept
  // only when it lies above the median.
  const double q = 1.0 - 10.0 / static_cast<double>(s.n);
  if (q > 0.5) {
    s.tail_q = q;
    s.tail = Quantile(samples, q);
  }
  return s;
}

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::vector<std::pair<int64_t, int64_t>> Normalized(
    const spatialjoin::JoinResult& result) {
  std::vector<std::pair<int64_t, int64_t>> m(result.matches.begin(),
                                             result.matches.end());
  std::sort(m.begin(), m.end());
  m.erase(std::unique(m.begin(), m.end()), m.end());
  return m;
}

MatchDigest Digest(const spatialjoin::JoinResult& result) {
  MatchDigest d;
  d.count = static_cast<int64_t>(result.matches.size());
  for (const auto& [r, s] : result.matches) {
    // Summing mixed pair codes is commutative, so emission order does
    // not matter; a duplicated pair changes both count and hash.
    d.hash += Mix64(Mix64(static_cast<uint64_t>(r)) ^
                    static_cast<uint64_t>(s));
  }
  return d;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t op)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  const int64_t parent =
      tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back({name, op, parent, NowNs(), 0});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->open_.pop_back();
}

int64_t Tracer::Open(const char* name, int64_t op, int64_t start_ns,
                     int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, op, parent, start_ns, start_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t index, int64_t end_ns) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

void Tracer::Record(const char* name, int64_t op, int64_t start_ns,
                    int64_t end_ns, int64_t parent) {
  if (!enabled_) return;
  if (parent == kCurrentParent) parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, op, parent, start_ns, end_ns});
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double total = static_cast<double>(span.end_ns - span.start_ns);
    SelfTime& agg = by_name[span.name];
    agg.name = span.name;
    ++agg.count;
    agg.total_ms += total / 1e6;
    agg.self_ms += (total - child_ns[i]) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, agg] : by_name) out.push_back(agg);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"op\": %lld, "
                 "\"parent\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 i, s.name, static_cast<long long>(s.op),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Tracer::MeasureSpanCostNs() {
  constexpr int kSpans = 200000;
  Tracer probe(true);
  probe.spans_.reserve(kSpans);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Scope scope(&probe, "probe", i);
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

void Report::Set(const std::string& name, double value) {
  auto known = [&](const std::vector<MetricDef>& defs) {
    return std::any_of(defs.begin(), defs.end(),
                       [&](const MetricDef& d) { return name == d.name; });
  };
  if (!known(end_to_end_) && !known(ungated_) && !known(layers_)) {
    Attempt(false, "metric " + name + " is not in the catalog");
    return;
  }
  values_[name] = value;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Attempt(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Keep the first few reasons; the count says how many there were.
  if (failures_.size() < 8) failures_.push_back(what_failed);
}

void Report::Shed() {
  ++attempted_;
  ++shed_;
}

int Report::Print(bool traced) {
  for (const MetricDef& d : end_to_end_) {
    if (values_.count(d.name) == 0) {
      Attempt(false, std::string("end-to-end metric ") + d.name +
                         " was not measured");
    }
  }
  for (const auto& [name, value] : values_) {
    if (!std::isfinite(value)) Attempt(false, name + " is not finite");
  }
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& why : failures_) {
    std::printf("FAILED: %s\n", why.c_str());
  }
  auto print_table = [&](const char* title, const char* text_title,
                         const std::vector<MetricDef>& defs) {
    std::printf("\n%-28s %16s  %-9s %s\n", title, "value", "unit", text_title);
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) {
        std::printf("%-28s %16s  %-9s %s\n", d.name, "n/a", d.unit, d.text);
      } else {
        std::printf("%-28s %16.6g  %-9s %s\n", d.name, it->second, d.unit,
                    d.text);
      }
    }
  };
  print_table("end-to-end metric", "what", end_to_end_);
  print_table("printed, not gated", "what", ungated_);
  if (traced) print_table("per-layer metric", "should move", layers_);
  const double fail_frac =
      attempted_ > 0
          ? static_cast<double>(failed_ + shed_) / static_cast<double>(attempted_)
          : 1.0;
  std::printf("\n%-28s %16.6g  %-9s %s\n", "fail_frac", fail_frac, "fraction",
              "operations not OK / operations attempted");
  std::printf("%lld attempted: %lld failed (wrong, lost or erroneous), "
              "%lld shed by the service\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), static_cast<long long>(shed_));

  std::string metrics;
  for (const MetricDef& d : traced ? layers_ : end_to_end_) {
    auto it = values_.find(d.name);
    const double value =
        it != values_.end() && std::isfinite(it->second) ? it->second : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, value, d.unit);
    metrics += buf;
  }
  const bool correct = failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
