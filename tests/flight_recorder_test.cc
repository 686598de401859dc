// Tests for the flight recorder (obs/flight_recorder.h) and the
// structured event log (obs/event_log.h): ring semantics, the activity
// table, the explicit dump pipeline, the watchdog, and — in forked
// subprocesses — the two fatal trigger paths (SJ_CHECK failure and a raw
// signal), each asserted to leave a schema-valid dump naming its trigger.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/timer.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

// Sanitizers install their own fatal-signal machinery and dislike
// fork-in-threaded-process, so the subprocess crash tests step aside
// there; the in-process dump/watchdog tests still run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SJ_UNDER_SANITIZER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#ifndef SJ_UNDER_SANITIZER
#define SJ_UNDER_SANITIZER 1
#endif
#endif
#endif

namespace spatialjoin {
namespace {

std::string TempDumpPath(const char* tag) {
  return ::testing::TempDir() + "sj_" + tag + "_" +
         std::to_string(::getpid()) + ".flightdump.json";
}

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Installs the recorder pointed at `path`, without signal handlers (the
// in-process tests never crash) and without the watchdog unless asked.
void InstallForTest(const std::string& path, bool watchdog = false,
                    int64_t stall_budget_ns = 0) {
  FlightRecorderOptions options;
  options.dump_path = path;
  options.install_signal_handlers = false;
  options.start_watchdog = watchdog;
  options.watchdog_interval_ms = 10;
  if (stall_budget_ns > 0) options.stall_budget_ns = stall_budget_ns;
  FlightRecorder::Install(options);
}

// ---------------------------------------------------------------------------
// Event log.
// ---------------------------------------------------------------------------

TEST(EventLogTest, RecordAndTailRoundTrip) {
  EventLog log(16);
  log.Record(EventType::kMessage, EventSeverity::kInfo, "plain");
  log.Recordf(EventType::kSlowQuery, EventSeverity::kWarn,
              "join %s: %d matches", "tree_join", 7);
  std::vector<EventView> tail = log.Tail(16);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 1u);
  EXPECT_EQ(tail[0].type, EventType::kMessage);
  EXPECT_EQ(tail[0].severity, EventSeverity::kInfo);
  EXPECT_EQ(tail[0].message, "plain");
  EXPECT_GT(tail[0].ts_ns, 0);
  EXPECT_EQ(tail[1].seq, 2u);
  EXPECT_EQ(tail[1].type, EventType::kSlowQuery);
  EXPECT_EQ(tail[1].severity, EventSeverity::kWarn);
  EXPECT_EQ(tail[1].message, "join tree_join: 7 matches");
  EXPECT_GE(tail[1].ts_ns, tail[0].ts_ns);
}

TEST(EventLogTest, WrapKeepsNewestAndCountsDropped) {
  EventLog log(8);
  for (int i = 0; i < 20; ++i) {
    log.Recordf(EventType::kMessage, EventSeverity::kInfo, "m%d", i);
  }
  EXPECT_EQ(log.total(), 20u);
  EXPECT_EQ(log.dropped(), 12u);
  std::vector<EventView> tail = log.Tail(100);
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.front().message, "m12");
  EXPECT_EQ(tail.back().message, "m19");
  for (size_t i = 1; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, tail[i - 1].seq + 1);
  }
}

TEST(EventLogTest, LongMessagesTruncateAtSlotCapacity) {
  EventLog log(4);
  std::string long_message(3 * EventRecord::kMessageBytes, 'x');
  log.Record(EventType::kMessage, EventSeverity::kInfo, long_message.c_str());
  std::vector<EventView> tail = log.Tail(4);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].message.size(), EventRecord::kMessageBytes - 1);
  EXPECT_EQ(tail[0].message, long_message.substr(
                                 0, EventRecord::kMessageBytes - 1));
}

TEST(EventLogTest, TailHonorsMaxRecords) {
  EventLog log(16);
  for (int i = 0; i < 10; ++i) {
    log.Recordf(EventType::kMessage, EventSeverity::kInfo, "m%d", i);
  }
  std::vector<EventView> tail = log.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().message, "m7");
  EXPECT_EQ(tail.back().message, "m9");
}

TEST(EventLogTest, SjEventMacroFeedsGlobalLog) {
  const uint64_t before = EventLog::Global().total();
  SJ_EVENT(kMessage, kInfo, "macro probe %d", 42);
  std::vector<EventView> tail = EventLog::Global().Tail(8);
  ASSERT_FALSE(tail.empty());
  EXPECT_GT(EventLog::Global().total(), before);
  EXPECT_EQ(tail.back().message, "macro probe 42");
}

TEST(EventLogTest, ConcurrentRecordersLoseNothing) {
  EventLog log(4096);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Recordf(EventType::kMessage, EventSeverity::kInfo, "t%d i%d", t,
                    i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(log.total(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.dropped(), 0u);
  std::vector<EventView> tail = log.Tail(kThreads * kPerThread);
  EXPECT_EQ(tail.size(), static_cast<size_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// Activity scopes.
// ---------------------------------------------------------------------------

TEST(ActivityScopeTest, BeatWithoutScopeIsANoop) {
  ActivityScope::BeatThisThread();  // must not crash or claim anything
}

TEST(ActivityScopeTest, NestedScopesBeatInnermost) {
  ActivityScope outer("test.outer", "outer");
  {
    ActivityScope inner("test.inner", "inner");
    ActivityScope::BeatThisThread();
    inner.SetDetail("detail text");
  }
  // Inner destroyed; the TLS stack must fall back to outer.
  ActivityScope::BeatThisThread();
  outer.Beat();
}

// ---------------------------------------------------------------------------
// Explicit dump pipeline.
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, ExplicitDumpIsSchemaValidAndSelfDescribing) {
  const std::string path = TempDumpPath("explicit");
  InstallForTest(path);
  EXPECT_TRUE(FlightRecorder::installed());

  SJ_EVENT(kMessage, kInfo, "explicit-dump marker event");
  ActivityScope scope("test.query", "unit");
  scope.SetDetail("explicit-dump scope");
  scope.Beat();

  const int64_t before = FlightRecorder::dumps_written();
  ASSERT_TRUE(FlightRecorder::Dump("explicit", "unit test"));
  EXPECT_EQ(FlightRecorder::dumps_written(), before + 1);

  const std::string doc = ReadFileToString(path);
  ASSERT_FALSE(doc.empty());
  const JsonDocument parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << doc.substr(0, 400);
  EXPECT_EQ(parsed.root.IntAt("flightdump_version", -1), 2);
  EXPECT_NE(doc.find("\"kind\": \"explicit\""), std::string::npos);
  EXPECT_NE(doc.find("unit test"), std::string::npos);
  EXPECT_NE(doc.find("explicit-dump marker event"), std::string::npos);
  EXPECT_NE(doc.find("test.query"), std::string::npos);
  EXPECT_NE(doc.find("explicit-dump scope"), std::string::npos);
  // Writing the dump records a kDump event; a second dump must carry it.
  ASSERT_TRUE(FlightRecorder::Dump("explicit", "second"));
  const std::string second = ReadFileToString(path);
  EXPECT_NE(second.find("\"type\": \"dump\""), std::string::npos);
  ::unlink(path.c_str());
}

TEST(FlightRecorderTest, InstallRepointsTheDumpPath) {
  const std::string first = TempDumpPath("repoint_a");
  const std::string second = TempDumpPath("repoint_b");
  InstallForTest(first);
  InstallForTest(second);
  ASSERT_TRUE(FlightRecorder::Dump("explicit", "repoint"));
  EXPECT_TRUE(ReadFileToString(first).empty());
  EXPECT_FALSE(ReadFileToString(second).empty());
  ::unlink(second.c_str());
}

TEST(FlightRecorderTest, BufferPoolFaultShowsUpInTheDump) {
  const std::string path = TempDumpPath("bp_fault");
  InstallForTest(path);

  // Fault injection: one dirty page, one failing write. The pool's
  // destructor flush fails and must record a kBufferPoolFault event
  // instead of an untracked stderr line.
  {
    DiskManager disk(256);
    BufferPool pool(&disk, 4);
    (void)pool.NewPage();  // allocated dirty
    disk.FailNextWrites(1);
  }

  ASSERT_TRUE(FlightRecorder::Dump("explicit", "after fault"));
  const std::string doc = ReadFileToString(path);
  EXPECT_TRUE(ParseJson(doc).ok()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"type\": \"buffer_pool_fault\""), std::string::npos)
      << "dump should carry the injected flush failure";
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

// Polls `done` for up to ~5s; returns whether it became true.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 500; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

TEST(FlightRecorderWatchdogTest, FlagsAStalledActivityAndDumps) {
  const std::string path = TempDumpPath("stall");
  // 50ms stall budget, 10ms scan interval: the sleeper below goes stale
  // after its single beat and must be flagged well within the poll window.
  InstallForTest(path, /*watchdog=*/true,
                 /*stall_budget_ns=*/int64_t{50} * 1000 * 1000);
  ASSERT_TRUE(FlightRecorder::watchdog_running());

  const int64_t stalls_before = FlightRecorder::watchdog_stalls();
  std::atomic<bool> release{false};
  std::thread sleeper([&release] {
    ActivityScope scope("test.stall", "sleeper");
    scope.Beat();
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  EXPECT_TRUE(WaitFor([&] {
    return FlightRecorder::watchdog_stalls() > stalls_before;
  })) << "watchdog never flagged the stalled scope";
  release.store(true, std::memory_order_release);
  sleeper.join();
  FlightRecorder::StopWatchdog();
  EXPECT_FALSE(FlightRecorder::watchdog_running());
  EXPECT_GT(FlightRecorder::watchdog_ticks(), 0);

  const std::string doc = ReadFileToString(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(ParseJson(doc).ok()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"detail\": \"stalled_heartbeat\""), std::string::npos);
  EXPECT_NE(doc.find("test.stall"), std::string::npos);

  // The incident is also an event, independent of the dump file.
  bool saw_stall_event = false;
  for (const EventView& e : EventLog::Global().Tail(256)) {
    if (e.type == EventType::kWatchdogStall) saw_stall_event = true;
  }
  EXPECT_TRUE(saw_stall_event);
  ::unlink(path.c_str());
}

TEST(FlightRecorderWatchdogTest, FlagsAnOverDeadlineQuery) {
  const std::string path = TempDumpPath("deadline");
  InstallForTest(path, /*watchdog=*/true,
                 /*stall_budget_ns=*/int64_t{10} * 1000 * 1000 * 1000);
  ASSERT_TRUE(FlightRecorder::watchdog_running());

  const int64_t hits_before = FlightRecorder::watchdog_deadline_hits();
  std::atomic<bool> release{false};
  std::thread overdue([&release] {
    // 1ms deadline, but the scope keeps beating — so only the deadline
    // check (not the stall check) can flag it.
    ActivityScope scope("test.deadline", "sleeper",
                        /*deadline_budget_ns=*/1000000);
    while (!release.load(std::memory_order_acquire)) {
      scope.Beat();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  EXPECT_TRUE(WaitFor([&] {
    return FlightRecorder::watchdog_deadline_hits() > hits_before;
  })) << "watchdog never flagged the over-deadline scope";
  release.store(true, std::memory_order_release);
  overdue.join();
  FlightRecorder::StopWatchdog();

  const std::string doc = ReadFileToString(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(ParseJson(doc).ok()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"detail\": \"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(doc.find("test.deadline"), std::string::npos);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Fatal trigger paths, each in a forked subprocess.
// ---------------------------------------------------------------------------

// Forks; runs `crash` (which must not return) in the child with the
// recorder armed at `path`; asserts the child died by `expected_signal`.
void RunCrashChild(const std::string& path, int expected_signal,
                   void (*crash)()) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: arm the real signal handlers, then die. Only async-safe
    // exits from here — no gtest, no exit(3) (it would run atexit hooks
    // of a half-copied process).
    FlightRecorderOptions options;
    options.dump_path = path;
    options.install_signal_handlers = true;
    FlightRecorder::Install(options);
    crash();
    _exit(97);  // unreachable: crash() must not return
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited normally with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  EXPECT_EQ(WTERMSIG(status), expected_signal);
}

TEST(FlightRecorderCrashTest, CheckFailureLeavesASchemaValidDump) {
#ifdef SJ_UNDER_SANITIZER
  GTEST_SKIP() << "subprocess crash tests are skipped under sanitizers";
#endif
  const std::string path = TempDumpPath("check_crash");
  RunCrashChild(path, SIGABRT, [] {
    SJ_EVENT(kMessage, kInfo, "pre-crash breadcrumb");
    SJ_CHECK_MSG(false, "deliberate test crash");
  });

  const std::string doc = ReadFileToString(path);
  ASSERT_FALSE(doc.empty()) << "child wrote no dump to " << path;
  EXPECT_TRUE(ParseJson(doc).ok()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"kind\": \"check_failure\""), std::string::npos);
  EXPECT_NE(doc.find("\"fatal\": true"), std::string::npos);
  EXPECT_NE(doc.find("deliberate test crash"), std::string::npos);
  // The event-log tail must carry both the breadcrumb and the failure.
  EXPECT_NE(doc.find("pre-crash breadcrumb"), std::string::npos);
  EXPECT_NE(doc.find("\"type\": \"check_failure\""), std::string::npos);
  ::unlink(path.c_str());
}

TEST(FlightRecorderCrashTest, FatalSignalLeavesASchemaValidDump) {
#ifdef SJ_UNDER_SANITIZER
  GTEST_SKIP() << "subprocess crash tests are skipped under sanitizers";
#endif
  const std::string path = TempDumpPath("signal_crash");
  RunCrashChild(path, SIGSEGV, [] {
    SJ_EVENT(kMessage, kInfo, "about to fault");
    ::raise(SIGSEGV);
  });

  const std::string doc = ReadFileToString(path);
  ASSERT_FALSE(doc.empty()) << "child wrote no dump to " << path;
  EXPECT_TRUE(ParseJson(doc).ok()) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"kind\": \"signal\""), std::string::npos);
  EXPECT_NE(doc.find("SIGSEGV"), std::string::npos);
  EXPECT_NE(doc.find("\"fatal\": true"), std::string::npos);
  EXPECT_NE(doc.find("about to fault"), std::string::npos);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace spatialjoin
