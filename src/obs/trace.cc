#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "obs/json.h"

namespace spatialjoin {

QueryTrace::QueryTrace(std::string kind, std::string detail)
    : kind_(std::move(kind)), detail_(std::move(detail)) {}

TraceLevel& QueryTrace::Level(int height) {
  auto it = std::lower_bound(
      levels_.begin(), levels_.end(), height,
      [](const TraceLevel& l, int h) { return l.height < h; });
  if (it != levels_.end() && it->height == height) return *it;
  it = levels_.insert(it, TraceLevel{});
  it->height = height;
  return *it;
}

int64_t QueryTrace::TotalWorklist() const {
  int64_t total = 0;
  for (const TraceLevel& l : levels_) total += l.worklist;
  return total;
}

int64_t QueryTrace::TotalThetaUpperTests() const {
  int64_t total = 0;
  for (const TraceLevel& l : levels_) total += l.theta_upper_tests;
  return total;
}

int64_t QueryTrace::TotalThetaTests() const {
  int64_t total = 0;
  for (const TraceLevel& l : levels_) total += l.theta_tests;
  return total;
}

int64_t QueryTrace::TotalPoolHits() const {
  int64_t total = 0;
  for (const TraceLevel& l : levels_) total += l.pool_hits;
  return total;
}

int64_t QueryTrace::TotalPoolMisses() const {
  int64_t total = 0;
  for (const TraceLevel& l : levels_) total += l.pool_misses;
  return total;
}

double QueryTrace::PoolHitRate() const {
  int64_t hits = TotalPoolHits();
  int64_t total = hits + TotalPoolMisses();
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void QueryTrace::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("kind", kind_);
  if (!detail_.empty()) w.KV("detail", detail_);
  if (!strategy_.empty()) w.KV("strategy", strategy_);
  w.KV("wall_ns", wall_ns_);
  w.KV("matches", matches_);
  w.Key("totals");
  w.BeginObject();
  w.KV("worklist", TotalWorklist());
  w.KV("theta_upper_tests", TotalThetaUpperTests());
  w.KV("theta_tests", TotalThetaTests());
  w.KV("pool_hits", TotalPoolHits());
  w.KV("pool_misses", TotalPoolMisses());
  w.KV("pool_hit_rate", PoolHitRate());
  w.EndObject();
  w.Key("levels");
  w.BeginArray();
  for (const TraceLevel& l : levels_) {
    w.BeginObject();
    w.KV("height", static_cast<int64_t>(l.height));
    w.KV("worklist", l.worklist);
    w.KV("theta_upper_tests", l.theta_upper_tests);
    w.KV("theta_tests", l.theta_tests);
    w.KV("descended", l.descended);
    w.KV("pruned", l.pruned);
    w.KV("pool_hits", l.pool_hits);
    w.KV("pool_misses", l.pool_misses);
    w.KV("wall_ns", l.wall_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

std::string QueryTrace::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

}  // namespace spatialjoin
