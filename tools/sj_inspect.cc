// sj_inspect — offline flight-dump inspector.
//
// A flight dump (*.flightdump.json, DESIGN.md §10) is written by the
// in-process flight recorder, possibly from a signal handler over a
// half-dead heap. This tool is the other half of that contract: it runs
// in a healthy process, after the fact, and turns the dump back into a
// readable incident report.
//
//   sj_inspect <dump.json>              render the incident summary
//   sj_inspect --timeline <dump.json>   also render the per-thread span log
//   sj_inspect --validate <dump...>     schema-check only; exit 1 on failure
//   sj_inspect --selftest               run built-in checks (used by ctest)
//
// Links only the JSON reader (obs/json.h, target sj_json), which needs
// nothing beyond the standard library: a dump must be inspectable on a
// machine where the library itself is the thing that crashed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace {

using spatialjoin::JsonDocument;
using spatialjoin::JsonValue;
using spatialjoin::ParseJson;

// ---------------------------------------------------------------------------
// Schema validation.
//
// The checks mirror the writer in src/obs/flight_recorder.cc; a dump that
// passes here is safe for downstream scripting to index without existence
// checks. Sections sourced from pre-serialized buffers (process, metrics
// snapshot) may be null — a signal can land before the first refresh.
// ---------------------------------------------------------------------------

class SchemaErrors {
 public:
  void Add(const std::string& path, const std::string& msg) {
    errors_.push_back(path + ": " + msg);
  }
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

void RequireInt(const JsonValue& parent, const std::string& path,
                const char* key, SchemaErrors* errors) {
  const JsonValue* v = parent.Member(key);
  if (v == nullptr || !v->is_number()) {
    errors->Add(path + "." + key, "missing or not a number");
  }
}

void RequireString(const JsonValue& parent, const std::string& path,
                   const char* key, SchemaErrors* errors) {
  const JsonValue* v = parent.Member(key);
  if (v == nullptr || !v->is_string()) {
    errors->Add(path + "." + key, "missing or not a string");
  }
}

void RequireBool(const JsonValue& parent, const std::string& path,
                 const char* key, SchemaErrors* errors) {
  const JsonValue* v = parent.Member(key);
  if (v == nullptr || !v->is_bool()) {
    errors->Add(path + "." + key, "missing or not a bool");
  }
}

void ValidateEvents(const JsonValue& events, SchemaErrors* errors) {
  RequireInt(events, "events", "capacity", errors);
  RequireInt(events, "events", "total", errors);
  RequireInt(events, "events", "dropped", errors);
  const JsonValue* records = events.Member("records");
  if (records == nullptr || !records->is_array()) {
    errors->Add("events.records", "missing or not an array");
    return;
  }
  for (size_t i = 0; i < records->items().size(); ++i) {
    const JsonValue& rec = records->items()[i];
    std::string path = "events.records[" + std::to_string(i) + "]";
    if (!rec.is_object()) {
      errors->Add(path, "not an object");
      continue;
    }
    RequireInt(rec, path, "seq", errors);
    RequireInt(rec, path, "ts_ns", errors);
    RequireInt(rec, path, "tid", errors);
    RequireString(rec, path, "type", errors);
    RequireString(rec, path, "severity", errors);
    RequireString(rec, path, "message", errors);
  }
}

void ValidateActivities(const JsonValue& activities, SchemaErrors* errors) {
  for (size_t i = 0; i < activities.items().size(); ++i) {
    const JsonValue& act = activities.items()[i];
    std::string path = "activities[" + std::to_string(i) + "]";
    if (!act.is_object()) {
      errors->Add(path, "not an object");
      continue;
    }
    RequireInt(act, path, "slot", errors);
    RequireString(act, path, "kind", errors);
    RequireString(act, path, "label", errors);
    RequireString(act, path, "detail", errors);
    RequireInt(act, path, "tid", errors);
    RequireBool(act, path, "idle", errors);
    RequireInt(act, path, "start_ns", errors);
    RequireInt(act, path, "age_ns", errors);
    RequireInt(act, path, "last_beat_ns", errors);
    RequireInt(act, path, "deadline_ns", errors);
  }
}

void ValidateSpans(const JsonValue& spans, SchemaErrors* errors) {
  RequireBool(spans, "spans", "repaired", errors);
  const JsonValue* threads = spans.Member("threads");
  if (threads == nullptr || !threads->is_array()) {
    errors->Add("spans.threads", "missing or not an array");
    return;
  }
  for (size_t t = 0; t < threads->items().size(); ++t) {
    const JsonValue& thread = threads->items()[t];
    std::string path = "spans.threads[" + std::to_string(t) + "]";
    if (!thread.is_object()) {
      errors->Add(path, "not an object");
      continue;
    }
    RequireInt(thread, path, "tid", errors);
    RequireString(thread, path, "name", errors);
    RequireInt(thread, path, "total", errors);
    RequireInt(thread, path, "dropped", errors);
    const JsonValue* events = thread.Member("events");
    if (events == nullptr || !events->is_array()) {
      errors->Add(path + ".events", "missing or not an array");
      continue;
    }
    for (size_t i = 0; i < events->items().size(); ++i) {
      const JsonValue& ev = events->items()[i];
      std::string ev_path = path + ".events[" + std::to_string(i) + "]";
      if (!ev.is_object()) {
        errors->Add(ev_path, "not an object");
        continue;
      }
      RequireString(ev, ev_path, "ph", errors);
      RequireString(ev, ev_path, "name", errors);
      RequireInt(ev, ev_path, "ts_ns", errors);
      const JsonValue* ph = ev.Member("ph");
      if (ph != nullptr && ph->is_string() && ph->str() != "B" &&
          ph->str() != "E" && ph->str() != "C") {
        errors->Add(ev_path + ".ph", "not one of B/E/C");
      }
    }
  }
}

// One retained QueryRecord in the service section's rings (the schema
// server/telemetry.cc emits).
void ValidateQueryRecord(const JsonValue& rec, const std::string& path,
                         SchemaErrors* errors) {
  if (!rec.is_object()) {
    errors->Add(path, "not an object");
    return;
  }
  for (const char* key :
       {"request_id", "session", "dataset", "end_ts_ns", "wall_ns",
        "queue_wait_ns", "pool_tasks", "pages_read", "pages_hit",
        "pairs_examined", "theta_tests", "qual_pairs", "nodes_accessed",
        "matches"}) {
    RequireInt(rec, path.c_str(), key, errors);
  }
  for (const char* key : {"kind", "strategy", "outcome"}) {
    RequireString(rec, path.c_str(), key, errors);
  }
  const JsonValue* outcome = rec.Member("outcome");
  if (outcome != nullptr && outcome->is_string() &&
      outcome->str() != "ok" && outcome->str() != "cancelled" &&
      outcome->str() != "deadline" && outcome->str() != "oversized") {
    errors->Add(path + ".outcome", "not one of ok/cancelled/deadline/oversized");
  }
}

// The `service` section: absent or null on processes that never ran a
// query server, an object with totals + the slow-query ring otherwise.
void ValidateServiceSection(const JsonValue& service, SchemaErrors* errors) {
  const JsonValue* queries = service.Member("queries");
  if (queries == nullptr || !queries->is_object()) {
    errors->Add("service.queries", "missing or not an object");
  } else {
    RequireInt(*queries, "service.queries", "ok", errors);
    RequireInt(*queries, "service.queries", "stopped", errors);
    RequireInt(*queries, "service.queries", "oversized", errors);
  }
  const JsonValue* latency = service.Member("latency");
  if (latency == nullptr || !latency->is_object()) {
    errors->Add("service.latency", "missing or not an object");
  } else {
    RequireInt(*latency, "service.latency", "window_ns", errors);
    RequireInt(*latency, "service.latency", "count", errors);
    RequireInt(*latency, "service.latency", "p50_ns", errors);
    RequireInt(*latency, "service.latency", "p99_ns", errors);
  }
  const JsonValue* ring = service.Member("slow_by_latency");
  if (ring == nullptr || !ring->is_array()) {
    errors->Add("service.slow_by_latency", "missing or not an array");
    return;
  }
  for (size_t i = 0; i < ring->items().size(); ++i) {
    ValidateQueryRecord(
        ring->items()[i],
        "service.slow_by_latency[" + std::to_string(i) + "]", errors);
  }
}

bool ValidateDump(const JsonValue& dump, SchemaErrors* errors) {
  if (!dump.is_object()) {
    errors->Add("$", "document is not an object");
    return false;
  }
  const JsonValue* version = dump.Member("flightdump_version");
  if (version == nullptr || !version->is_number()) {
    errors->Add("flightdump_version", "missing or not a number");
  } else if (version->AsInt() != 2) {
    errors->Add("flightdump_version",
                "unsupported version " + std::to_string(version->AsInt()));
  }
  RequireInt(dump, "$", "pid", errors);

  const JsonValue* reason = dump.Member("reason");
  if (reason == nullptr || !reason->is_object()) {
    errors->Add("reason", "missing or not an object");
  } else {
    RequireString(*reason, "reason", "kind", errors);
    RequireString(*reason, "reason", "detail", errors);
    RequireBool(*reason, "reason", "fatal", errors);
    RequireInt(*reason, "reason", "ts_ns", errors);
  }

  const JsonValue* process = dump.Member("process");
  if (process == nullptr || (!process->is_object() && !process->is_null())) {
    errors->Add("process", "missing or not an object/null");
  }

  const JsonValue* events = dump.Member("events");
  if (events == nullptr || !events->is_object()) {
    errors->Add("events", "missing or not an object");
  } else {
    ValidateEvents(*events, errors);
  }

  const JsonValue* activities = dump.Member("activities");
  if (activities == nullptr || !activities->is_array()) {
    errors->Add("activities", "missing or not an array");
  } else {
    ValidateActivities(*activities, errors);
  }

  const JsonValue* spans = dump.Member("spans");
  if (spans == nullptr || !spans->is_object()) {
    errors->Add("spans", "missing or not an object");
  } else {
    ValidateSpans(*spans, errors);
  }

  const JsonValue* metrics = dump.Member("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    errors->Add("metrics", "missing or not an object");
  } else {
    const JsonValue* snapshot = metrics->Member("snapshot");
    if (snapshot == nullptr ||
        (!snapshot->is_object() && !snapshot->is_null())) {
      errors->Add("metrics.snapshot", "missing or not an object/null");
    }
    const JsonValue* deltas = metrics->Member("deltas");
    if (deltas == nullptr || !deltas->is_array()) {
      errors->Add("metrics.deltas", "missing or not an array");
    }
  }

  // Dumps predating the service section (or from processes that never
  // served queries) carry no `service` key or a null one; both are valid.
  const JsonValue* service = dump.Member("service");
  if (service != nullptr && !service->is_null()) {
    if (!service->is_object()) {
      errors->Add("service", "not an object/null");
    } else {
      ValidateServiceSection(*service, errors);
    }
  }

  const JsonValue* watchdog = dump.Member("watchdog");
  if (watchdog == nullptr || !watchdog->is_object()) {
    errors->Add("watchdog", "missing or not an object");
  } else {
    RequireBool(*watchdog, "watchdog", "running", errors);
    RequireInt(*watchdog, "watchdog", "ticks", errors);
    RequireInt(*watchdog, "watchdog", "stalls", errors);
    RequireInt(*watchdog, "watchdog", "deadline_hits", errors);
  }
  return errors->ok();
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

std::string FormatNs(int64_t ns) {
  char buf[64];
  if (ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

void RenderSummary(const JsonValue& dump, std::ostream& os) {
  const JsonValue* reason = dump.Member("reason");
  const int64_t reason_ts = dump.IntAt("reason.ts_ns");
  os << "flight dump: pid " << dump.IntAt("pid") << "\n";
  os << "reason: " << reason->StringAt("kind");
  if (!reason->StringAt("detail").empty()) {
    os << " — " << reason->StringAt("detail");
  }
  os << (reason->Member("fatal")->boolean() ? " [fatal]" : "") << "\n";

  const JsonValue* watchdog = dump.Member("watchdog");
  os << "watchdog: "
     << (watchdog->Member("running")->boolean() ? "running" : "stopped") << ", "
     << watchdog->IntAt("ticks") << " ticks, "
     << watchdog->IntAt("stalls") << " stalls, "
     << watchdog->IntAt("deadline_hits") << " deadline hits\n";

  const JsonValue* activities = dump.Member("activities");
  os << "\nactivities (" << activities->items().size() << " live):\n";
  for (const JsonValue& act : activities->items()) {
    os << "  [" << act.IntAt("slot") << "] " << act.StringAt("kind")
       << "/" << act.StringAt("label");
    if (!act.StringAt("detail").empty()) {
      os << " (" << act.StringAt("detail") << ")";
    }
    os << " tid " << act.IntAt("tid")
       << (act.Member("idle")->boolean() ? " idle" : "") << ", age "
       << FormatNs(act.IntAt("age_ns"));
    int64_t last_beat = act.IntAt("last_beat_ns");
    if (last_beat > 0 && reason_ts > last_beat) {
      os << ", last beat " << FormatNs(reason_ts - last_beat) << " ago";
    }
    os << "\n";
  }

  const JsonValue* events = dump.Member("events");
  const JsonValue* records = events->Member("records");
  os << "\nevents (" << records->items().size() << " of "
     << events->IntAt("total") << " total, "
     << events->IntAt("dropped") << " dropped):\n";
  for (const JsonValue& rec : records->items()) {
    int64_t ts = rec.IntAt("ts_ns");
    os << "  ";
    if (reason_ts >= ts) {
      os << "-" << FormatNs(reason_ts - ts);
    } else {
      os << "+" << FormatNs(ts - reason_ts);
    }
    os << " [" << rec.StringAt("severity") << "] "
       << rec.StringAt("type") << ": " << rec.StringAt("message")
       << " (tid " << rec.IntAt("tid") << ")\n";
  }

  const JsonValue* deltas = dump.Member("metrics")->Member("deltas");
  if (deltas != nullptr && !deltas->items().empty()) {
    os << "\nmetric deltas captured: " << deltas->items().size() << "\n";
  }

  const JsonValue* service = dump.Member("service");
  if (service != nullptr && service->is_object()) {
    const JsonValue* queries = service->Member("queries");
    os << "\nservice: " << queries->IntAt("ok") << " ok, "
       << queries->IntAt("stopped") << " stopped, "
       << queries->IntAt("oversized") << " oversized";
    const JsonValue* latency = service->Member("latency");
    if (latency != nullptr && latency->is_object() &&
        latency->IntAt("count") > 0) {
      os << "; last " << FormatNs(latency->IntAt("window_ns")) << ": "
         << latency->IntAt("count") << " queries, p50 "
         << FormatNs(latency->Member("p50_ns")->AsInt()) << ", p99 "
         << FormatNs(latency->Member("p99_ns")->AsInt());
    }
    os << "\n";
    const JsonValue* ring = service->Member("slow_by_latency");
    if (!ring->items().empty()) os << "slowest queries:\n";
    for (const JsonValue& rec : ring->items()) {
      os << "  sess" << rec.IntAt("session") << " req"
         << rec.IntAt("request_id") << " "
         << rec.StringAt("kind") << "/" << rec.StringAt("strategy")
         << " [" << rec.StringAt("outcome") << "] "
         << FormatNs(rec.IntAt("wall_ns")) << ", "
         << rec.IntAt("pages_read") << " reads, "
         << rec.IntAt("pairs_examined") << " pairs\n";
    }
  }
}

void RenderTimeline(const JsonValue& dump, std::ostream& os) {
  const JsonValue* threads = dump.Member("spans")->Member("threads");
  os << "\nspan timeline (" << threads->items().size() << " threads):\n";
  for (const JsonValue& thread : threads->items()) {
    os << "  tid " << thread.IntAt("tid");
    if (!thread.StringAt("name").empty()) {
      os << " (" << thread.StringAt("name") << ")";
    }
    os << ": " << thread.Member("events")->items().size() << " of "
       << thread.IntAt("total") << " events, "
       << thread.IntAt("dropped") << " dropped\n";
    int depth = 0;
    for (const JsonValue& ev : thread.Member("events")->items()) {
      const std::string ph = ev.StringAt("ph");
      if (ph == "E" && depth > 0) --depth;
      os << "    " << ev.IntAt("ts_ns") << " ";
      for (int i = 0; i < depth; ++i) os << "| ";
      if (ph == "B") {
        os << "+ " << ev.StringAt("name");
        const JsonValue* cat = ev.Member("cat");
        if (cat != nullptr && cat->is_string()) {
          os << " [" << cat->str() << "]";
        }
        ++depth;
      } else if (ph == "E") {
        os << "- " << ev.StringAt("name");
      } else {
        const JsonValue* value = ev.Member("value");
        os << "# " << ev.StringAt("name") << " = "
           << (value != nullptr ? value->AsInt() : 0);
      }
      os << "\n";
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Loads + parses + schema-checks one dump. Returns 0 on success, 1 on
// invalid content, 2 on I/O failure; diagnostics go to stderr.
int LoadDump(const std::string& path, JsonValue* dump) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "sj_inspect: cannot read %s\n", path.c_str());
    return 2;
  }
  JsonDocument doc = ParseJson(text);
  if (!doc.ok()) {
    std::fprintf(stderr, "sj_inspect: %s: JSON parse error: %s\n",
                 path.c_str(), doc.error.c_str());
    return 1;
  }
  *dump = std::move(doc.root);
  SchemaErrors errors;
  if (!ValidateDump(*dump, &errors)) {
    std::fprintf(stderr, "sj_inspect: %s: schema violations:\n", path.c_str());
    for (const std::string& e : errors.errors()) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    return 1;
  }
  return 0;
}

// A structurally complete specimen exercising every schema branch the
// validator checks; doubles as documentation of the format.
constexpr const char kSampleDump[] = R"json({
"flightdump_version": 2,
"pid": 4242,
"reason": {"kind": "check_failure", "detail": "join.cc:42: SJ_CHECK(x)",
           "fatal": true, "ts_ns": 5000000},
"process": {"pid": 4242, "rss_bytes": 1048576},
"events": {"capacity": 4096, "total": 3, "dropped": 0, "records": [
  {"seq": 1, "ts_ns": 1000000, "tid": 100, "type": "query_planned",
   "severity": "info", "message": "chose tree_join (est. cost 12.0)"},
  {"seq": 2, "ts_ns": 2000000, "tid": 100, "type": "check_failure",
   "severity": "fatal", "message": "join.cc:42: SJ_CHECK(x) — boom"}
]},
"activities": [
  {"slot": 0, "kind": "query.join", "label": "tree_join",
   "detail": "sess3 req17",
   "tid": 100, "idle": false, "start_ns": 900000, "age_ns": 4100000,
   "last_beat_ns": 1900000, "deadline_ns": 0},
  {"slot": 1, "kind": "pool.worker", "label": "worker",
   "detail": "pool0.worker1", "tid": 101, "idle": true, "start_ns": 1000,
   "age_ns": 4999000, "last_beat_ns": 4000000, "deadline_ns": 0}
],
"spans": {"repaired": false, "threads": [
  {"tid": 100, "name": "main", "total": 3, "dropped": 0, "events": [
    {"ph": "B", "name": "tree_join", "cat": "query.join", "ts_ns": 1000000},
    {"ph": "C", "name": "join.qual_pairs", "ts_ns": 1500000, "value": 12},
    {"ph": "E", "name": "tree_join", "ts_ns": 4900000}
  ]}
]},
"metrics": {"snapshot": {"counters": {"query.join.count": 1}},
"snapshot_age_ns": 120000,
"deltas": [{"ts_ns": 4000000, "changed": {"query.join.count": 1}}]},
"service": {
  "queries": {"ok": 12, "stopped": 1, "oversized": 0},
  "latency": {"window_ns": 4000000000, "count": 12, "mean_ns": 800000.0,
              "p50_ns": 524287, "p90_ns": 2097151, "p99_ns": 4194303},
  "slow_by_latency": [
    {"request_id": 7, "session": 3, "dataset": 1, "kind": "join",
     "strategy": "parallel_tree_join", "outcome": "ok",
     "end_ts_ns": 4500000, "wall_ns": 3900000, "queue_wait_ns": 120000,
     "pool_tasks": 8, "pages_read": 40, "pages_hit": 200,
     "pairs_examined": 900, "theta_tests": 450, "qual_pairs": 300,
     "nodes_accessed": 64, "matches": 17},
    {"request_id": 9, "session": 3, "dataset": 1, "kind": "select",
     "strategy": "tree", "outcome": "deadline",
     "end_ts_ns": 4800000, "wall_ns": 600000, "queue_wait_ns": 0,
     "pool_tasks": 0, "pages_read": 2, "pages_hit": 30,
     "pairs_examined": 120, "theta_tests": 1, "qual_pairs": 0,
     "nodes_accessed": 12, "matches": 0}
  ]
},
"watchdog": {"running": true, "ticks": 40, "stalls": 0, "deadline_hits": 0}
}
)json";

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // Parses `text` (a well-formed document; the reader has its own test)
  // and schema-checks it.
  auto validate = [&expect](std::string_view text, JsonValue* dump,
                            SchemaErrors* errors) {
    JsonDocument doc = ParseJson(text);
    expect(doc.ok(), "selftest document parses");
    *dump = std::move(doc.root);
    return ValidateDump(*dump, errors);
  };

  // The embedded specimen must validate...
  {
    JsonValue dump;
    SchemaErrors errors;
    expect(validate(kSampleDump, &dump, &errors), "sample dump validates");
    for (const std::string& e : errors.errors()) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    // ...and render without crashing (output discarded).
    std::ostringstream sink;
    RenderSummary(dump, sink);
    RenderTimeline(dump, sink);
    expect(!sink.str().empty(), "sample dump renders");
    expect(sink.str().find("check_failure") != std::string::npos,
           "summary names the reason");
    expect(sink.str().find("pool0.worker1") != std::string::npos,
           "summary includes activity detail");
    expect(sink.str().find("slowest queries") != std::string::npos,
           "summary renders the slow-query table");
    expect(sink.str().find("parallel_tree_join") != std::string::npos,
           "slow-query table names the strategy");
  }

  // The service section is optional (absent/null), but when present its
  // records must carry the full QueryRecord schema.
  {
    JsonValue dump;
    SchemaErrors errors;
    expect(!validate("{\"flightdump_version\": 2, \"service\": "
                     "{\"queries\": {\"ok\": 1, \"stopped\": 0, "
                     "\"oversized\": 0},"
                     " \"latency\": {\"window_ns\": 1, \"count\": 0,"
                     " \"p50_ns\": 0, \"p99_ns\": 0},"
                     " \"slow_by_latency\": [{\"request_id\": 1}]}}",
                     &dump, &errors),
           "incomplete QueryRecord rejected");
    bool found = false;
    for (const std::string& e : errors.errors()) {
      if (e.find("slow_by_latency[0]") != std::string::npos) found = true;
    }
    expect(found, "schema error names the offending ring entry");
  }
  {
    JsonValue dump;
    SchemaErrors errors;
    validate("{\"service\": null}", &dump, &errors);
    for (const std::string& e : errors.errors()) {
      expect(e.find("service") == std::string::npos,
             "null service section is not an error");
    }
  }

  // Exactly version 2 validates: the specimen under version 1 or 3 fails
  // on that field alone.
  for (const char* other : {"1", "3"}) {
    const std::string key = "\"flightdump_version\": 2";
    std::string text = kSampleDump;
    text.replace(text.find(key) + key.size() - 1, 1, other);
    JsonValue dump;
    SchemaErrors errors;
    expect(!validate(text, &dump, &errors) && errors.errors().size() == 1 &&
               errors.errors()[0] == "flightdump_version: unsupported "
                                     "version " + std::string(other),
           "another version fails validation on the version alone");
  }
  {
    JsonValue dump;
    SchemaErrors errors;
    expect(!validate("[1, 2, 3]", &dump, &errors),
           "non-object document rejected");
  }

  if (failures == 0) std::printf("sj_inspect selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sj_inspect [--timeline] <dump.flightdump.json>\n"
               "       sj_inspect --validate <dump...>\n"
               "       sj_inspect --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();

  if (args[0] == "--selftest") return SelfTest();

  if (args[0] == "--validate") {
    if (args.size() < 2) return Usage();
    int worst = 0;
    for (size_t i = 1; i < args.size(); ++i) {
      JsonValue dump;
      int rc = LoadDump(args[i], &dump);
      if (rc == 0) std::printf("%s: ok\n", args[i].c_str());
      worst = std::max(worst, rc);
    }
    return worst;
  }

  bool timeline = false;
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--timeline") {
      timeline = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  JsonValue dump;
  int rc = LoadDump(path, &dump);
  if (rc != 0) return rc;
  std::ostringstream out;
  RenderSummary(dump, out);
  if (timeline) RenderTimeline(dump, out);
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
