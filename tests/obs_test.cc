#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace spatialjoin {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsAreAllCounted) {
  // Counters shard per thread: hammer one counter (and one shared
  // registry counter) from more threads than shards and verify the merged
  // total is exact once all writers joined.
  Counter local;
  MetricsRegistry registry;
  Counter* registered = registry.GetCounter("test.concurrent");
  constexpr int kThreads = Counter::kShards + 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&local, registered] {
      for (int i = 0; i < kIters; ++i) {
        local.Increment();
        registered->Increment(2);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(local.Value(), int64_t{kThreads} * kIters);
  EXPECT_EQ(registered->Value(), int64_t{2} * kThreads * kIters);
  EXPECT_EQ(registry.CounterValue("test.concurrent"),
            int64_t{2} * kThreads * kIters);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(1.5);
  g.Set(-3.0);
  EXPECT_DOUBLE_EQ(g.Value(), -3.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

TEST(HistogramTest, BucketsAndMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(100);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 106);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 4.0);
  // Bucket layout: b>=1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(h.bucket_count(1), 1);  // value 1
  EXPECT_EQ(h.bucket_count(2), 2);  // values 2, 3
  EXPECT_EQ(h.bucket_count(7), 1);  // value 100 in [64, 127]
}

TEST(HistogramTest, QuantileUpperBoundIsBucketCeiling) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(1);
  h.Record(1000);
  // p50 sits in the bucket holding the 1s; its ceiling is 1.
  EXPECT_EQ(h.QuantileUpperBound(0.5), 1);
  // p100 covers the outlier's bucket [512, 1023].
  EXPECT_EQ(h.QuantileUpperBound(1.0), 1023);
  // Quantiles are ceilings: every recorded value is <= its quantile bound.
  EXPECT_GE(h.QuantileUpperBound(1.0), h.max());
}

TEST(HistogramTest, NonPositiveValuesLandInBucketZero) {
  Histogram h;
  h.Record(0);
  h.Record(-5);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0);
}

TEST(ScopedTimerTest, RecordsElapsedIntoHistogramAndOut) {
  Histogram h;
  double elapsed_ns = 0.0;
  {
    ScopedTimer timer(&h, &elapsed_ns);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(elapsed_ns, 1e6);  // slept >= 2 ms, so > 1 ms measured
  EXPECT_GE(h.max(), static_cast<int64_t>(1e6));
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test.counter");
  Counter* b = reg.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(reg.CounterValue("test.counter"), 7);
  EXPECT_EQ(reg.CounterValue("test.never_registered"), 0);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  Histogram* h = reg.GetHistogram("test.histogram");
  c->Increment(5);
  h->Record(9);
  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->count(), 0);
  // Same pointer after reset — registrations survive.
  EXPECT_EQ(reg.GetCounter("test.counter"), c);
}

TEST(MetricsRegistryTest, JsonIsValidAndContainsInstruments) {
  MetricsRegistry reg;
  reg.GetCounter("a.counter")->Increment(3);
  reg.GetGauge("b.gauge")->Set(2.5);
  reg.GetHistogram("c.histogram")->Record(17);
  std::string json = reg.ToJson();
  const JsonDocument doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error << "\n" << json;
  // Registry keys contain dots, so they are members, not dotted paths.
  EXPECT_EQ(doc.root.Member("counters")->Member("a.counter")->AsInt(), 3);
  EXPECT_NE(json.find("\"b.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"c.histogram\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsProcessWide) {
  Counter* c = MetricsRegistry::Global().GetCounter("obs_test.global");
  c->Increment();
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("obs_test.global"), 1);
  c->Reset();
}

TEST(JsonWriterTest, EscapesAndNesting) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KV("quote\"back\\slash", std::string("line\nbreak"));
  w.Key("nested");
  w.BeginArray();
  w.Int(1);
  w.Double(2.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  std::string json = os.str();
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // The reader decodes what the writer escaped.
  const JsonDocument doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error << "\n" << json;
  EXPECT_EQ(doc.root.StringAt("quote\"back\\slash"), "line\nbreak");
  const std::vector<JsonValue>& nested = doc.root.Member("nested")->items();
  ASSERT_EQ(nested.size(), 4u);
  EXPECT_EQ(nested[0].AsInt(), 1);
  EXPECT_EQ(nested[1].AsDouble(), 2.5);
  EXPECT_TRUE(nested[2].boolean());
  EXPECT_TRUE(nested[3].is_null());
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  std::string json = os.str();
  EXPECT_TRUE(ParseJson(json).ok()) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(QueryTraceTest, LevelsStaySortedAndTotalsSum) {
  QueryTrace trace("join", "unit test");
  trace.Level(2).worklist = 10;
  trace.Level(0).worklist = 1;
  trace.Level(1).worklist = 4;
  trace.Level(1).theta_upper_tests = 8;
  trace.Level(1).theta_tests = 3;
  trace.Level(2).pool_hits = 6;
  trace.Level(2).pool_misses = 2;

  ASSERT_EQ(trace.levels().size(), 3u);
  EXPECT_EQ(trace.levels()[0].height, 0);
  EXPECT_EQ(trace.levels()[1].height, 1);
  EXPECT_EQ(trace.levels()[2].height, 2);
  EXPECT_EQ(trace.TotalWorklist(), 15);
  EXPECT_EQ(trace.TotalThetaUpperTests(), 8);
  EXPECT_EQ(trace.TotalThetaTests(), 3);
  EXPECT_EQ(trace.TotalPoolHits(), 6);
  EXPECT_EQ(trace.TotalPoolMisses(), 2);
  EXPECT_DOUBLE_EQ(trace.PoolHitRate(), 6.0 / 8.0);
}

TEST(QueryTraceTest, LevelIsGetOrCreate) {
  QueryTrace trace("select");
  trace.Level(3).worklist = 5;
  trace.Level(3).worklist += 2;
  EXPECT_EQ(trace.levels().size(), 1u);
  EXPECT_EQ(trace.levels()[0].worklist, 7);
}

TEST(QueryTraceTest, JsonIsValid) {
  QueryTrace trace("join", "detail with \"quotes\"");
  trace.set_strategy("tree_join");
  trace.set_wall_ns(1234.5);
  trace.set_matches(9);
  trace.Level(0).worklist = 1;
  trace.Level(1).worklist = 12;
  std::string json = trace.ToJson();
  EXPECT_TRUE(ParseJson(json).ok()) << json;
  EXPECT_NE(json.find("\"tree_join\""), std::string::npos);
  EXPECT_NE(json.find("\"levels\""), std::string::npos);
}

TEST(QueryTraceTest, EmptyTraceHasZeroHitRate) {
  QueryTrace trace("join");
  EXPECT_DOUBLE_EQ(trace.PoolHitRate(), 0.0);
  EXPECT_TRUE(ParseJson(trace.ToJson()).ok());
}

TEST(JsonReaderTest, DecodesEscapesAndReadsIntegersExactly) {
  const JsonDocument doc = ParseJson(
      R"({"s": "a\"b\\/\u0041\u001f\u00e9\n", "big": 9007199254740993,
          "min": -9223372036854775808, "frac": -12.5e2, "cut": -2.9,
          "huge": 1e300, "flag": true, "none": null, "list": [1, "x"]})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue& root = doc.root;
  EXPECT_EQ(root.StringAt("s"), "a\"b\\/A\x1f?\n");
  // 2^53 + 1: a double would read 9007199254740992.
  EXPECT_EQ(root.IntAt("big"), int64_t{9007199254740993});
  EXPECT_EQ(root.IntAt("min"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(root.DoubleAt("frac"), -1250.0);
  EXPECT_EQ(root.IntAt("cut"), -2);        // truncated toward zero
  EXPECT_EQ(root.IntAt("huge", -1), -1);   // outside int64
  EXPECT_TRUE(root.Member("flag")->boolean());
  EXPECT_TRUE(root.Member("none")->is_null());
  ASSERT_EQ(root.Member("list")->items().size(), 2u);
  EXPECT_EQ(root.Member("list")->items()[1].str(), "x");
}

TEST(JsonReaderTest, DottedPathsFallBackForAbsentOrMistypedLeaves) {
  const JsonDocument doc =
      ParseJson(R"({"a": {"b": {"c": 7}, "s": "x"}, "a.b": 1})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_EQ(doc.root.IntAt("a.b.c"), 7);
  EXPECT_EQ(doc.root.IntAt("a.b.missing", -1), -1);
  EXPECT_EQ(doc.root.IntAt("a.s", -1), -1);
  EXPECT_EQ(doc.root.StringAt("a.s"), "x");
  EXPECT_EQ(doc.root.StringAt("a.b", "?"), "?");
  EXPECT_EQ(doc.root.Member("a.b")->AsInt(), 1);
  EXPECT_EQ(doc.root.Member("a")->Member("missing"), nullptr);
}

TEST(JsonReaderTest, RejectsMalformedInputAtTheFirstBadByte) {
  struct Case {
    std::string text;
    size_t offset;
  };
  const Case cases[] = {
      {"{\"a\": [1, 2", 11},  // truncated
      {"{\"a\": 1,}", 8},     // trailing comma
      {"[1, 2,]", 6},
      {"{} {}", 3},           // trailing content
      {"\"a\nb\"", 2},        // unescaped control character
      {"\"\\x\"", 1},         // bad escapes
      {"\"\\u00g0\"", 1},
      {"-", 1},               // malformed numbers
      {"1.", 2},
      {"1e", 2},
      {"nul", 0},             // bad literal
      {std::string(kJsonMaxDepth + 1, '[') +  // nested too deep
           std::string(kJsonMaxDepth + 1, ']'),
       kJsonMaxDepth},
  };
  for (const Case& c : cases) {
    const JsonDocument doc = ParseJson(c.text);
    EXPECT_FALSE(doc.ok()) << c.text;
    EXPECT_EQ(doc.error_offset, c.offset) << c.text << ": " << doc.error;
    EXPECT_TRUE(doc.root.is_null());
  }
  EXPECT_TRUE(ParseJson(std::string(kJsonMaxDepth, '[') +
                        std::string(kJsonMaxDepth, ']'))
                  .ok());

  // A document cut off mid-write, the way a dying process leaves one.
  MetricsRegistry reg;
  reg.GetHistogram("h")->Record(5);
  const std::string json = reg.ToJson();
  EXPECT_FALSE(ParseJson(json.substr(0, json.size() / 2)).ok());
}

}  // namespace
}  // namespace spatialjoin
