// Query-service integration tests (DESIGN.md §12): results over the wire
// are byte-identical to direct in-process execution, concurrent mixed
// clients all get correct replies, admission control rejects with
// backpressure, deadlines and cancels surface as DEADLINE_EXCEEDED /
// CANCELLED error replies, disconnects orphan-cancel cleanly, and the
// shared pool is quiescent after shutdown. The TSan CI job runs this
// suite as the service smoke test.

#include <gtest/gtest.h>

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/exec_audit.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/telemetry.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/rect_generator.h"

namespace spatialjoin {
namespace server {
namespace {

struct FrozenPair {
  exec::FrozenTree r;
  exec::FrozenTree s;
};

// Builds a pair of generalization-tree snapshots from synthetic
// rectangle relations. The storage stack is local and discarded: a
// FrozenTree copies everything it needs, which is exactly why the server
// serves snapshots.
FrozenPair MakeFrozenPair(uint64_t seed_r, uint64_t seed_s, int64_t tuples) {
  DiskManager disk(4000);
  BufferPool pool(&disk, 2048);
  Rectangle world(0, 0, 600, 600);
  Schema schema({{"id", ValueType::kInt64}, {"box", ValueType::kRectangle}});
  Relation r("r", schema, &pool);
  Relation s("s", schema, &pool);
  RTree r_rtree(&pool, RTreeSplit::kQuadratic, 8);
  RTree s_rtree(&pool, RTreeSplit::kQuadratic, 8);
  RectGenerator gen_r(world, seed_r);
  RectGenerator gen_s(world, seed_s);
  for (int64_t i = 0; i < tuples; ++i) {
    Rectangle box_r = gen_r.NextRect(2, 30);
    Rectangle box_s = gen_s.NextRect(2, 30);
    r_rtree.Insert(box_r, r.Insert(Tuple({Value(i), Value(box_r)})));
    s_rtree.Insert(box_s, s.Insert(Tuple({Value(i), Value(box_s)})));
  }
  RTreeGenTree r_adapter(&r_rtree, &r, 1);
  RTreeGenTree s_adapter(&s_rtree, &s, 1);
  return {exec::FrozenTree::Materialize(r_adapter),
          exec::FrozenTree::Materialize(s_adapter)};
}

SelectRequest OverlapSelect(uint32_t dataset_id, const Rectangle& window) {
  SelectRequest request;
  request.dataset_id = dataset_id;
  request.strategy = SelectStrategy::kTree;
  request.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
  request.selector = window;
  return request;
}

JoinRequest OverlapJoin(uint32_t dataset_id) {
  JoinRequest request;
  request.dataset_id = dataset_id;
  request.strategy = JoinStrategy::kTreeJoin;
  request.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
  return request;
}

// Descriptors this process has open (plus a constant: the directory's
// own entries and descriptor).
int OpenDescriptorCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

// Threads this process runs (`Threads:` in /proc/self/status).
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// Polls `done` every millisecond for up to `seconds`; returns its last
// value.
template <typename Done>
bool WaitFor(const Done& done, int seconds) {
  for (int i = 0; i < seconds * 1000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// A raw connection whose receives time out, so a server that never
// answers fails the caller instead of hanging it.
class TimedConnection {
 public:
  TimedConnection(const std::string& socket_path, int timeout_ms)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    timeval timeout{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TimedConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& bytes) {
    return connected_ && ::send(fd_, bytes.data(), bytes.size(),
                                MSG_NOSIGNAL) ==
                             static_cast<ssize_t>(bytes.size());
  }

  bool SendPing(uint64_t request_id) { return Send(EncodePing(request_id)); }

  // True when a whole frame arrives before a receive times out.
  bool NextFrame(Frame* frame) {
    char buf[4096];
    while (!decoder_.Next(frame)) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      if (!decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)))
               .ok()) {
        return false;
      }
    }
    return true;
  }

  // True when the pong for `request_id` is the next frame to arrive
  // before a receive times out.
  bool AwaitPong(uint64_t request_id) {
    Frame frame;
    return NextFrame(&frame) &&
           frame.type == static_cast<uint8_t>(MessageType::kPong) &&
           frame.request_id == request_id;
  }

  // Receives once; true when some bytes arrived before the timeout.
  bool ReceiveSome() {
    char buf[4096];
    return ::recv(fd_, buf, sizeof(buf), 0) > 0;
  }

  bool Ping() { return SendPing(1) && AwaitPong(1); }

 private:
  const int fd_;
  bool connected_ = false;
  FrameDecoder decoder_;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : pool_(4) {}

  // Starts a server over `pool_` with dataset 0 = the small pair and
  // (optionally) dataset 1 = a heavy pair whose all-matching
  // within-distance join runs long enough to cancel or deadline
  // deterministically.
  void StartServer(Server::Options options, bool with_heavy = false) {
    server_ = std::make_unique<Server>(&pool_, options);
    FrozenPair ours = MakeFrozenPair(41, 42, 200);
    direct_ = std::make_unique<FrozenPair>(MakeFrozenPair(41, 42, 200));
    ASSERT_EQ(server_->RegisterDataset(std::move(ours.r), std::move(ours.s)),
              0u);
    if (with_heavy) {
      FrozenPair heavy = MakeFrozenPair(51, 52, 2500);
      ASSERT_EQ(
          server_->RegisterDataset(std::move(heavy.r), std::move(heavy.s)),
          1u);
    }
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<ServiceClient> Connect() {
    Result<std::unique_ptr<ServiceClient>> client =
        ServiceClient::Connect(server_->socket_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // Direct in-process execution over an identically-built snapshot pair —
  // the ground truth the wire results must reproduce byte for byte.
  JoinResult DirectSelect(const SelectRequest& request) {
    SpatialJoinContext ctx;
    ctx.s_tree = &direct_->s;
    Result<std::unique_ptr<ThetaOperator>> op =
        MakeWireOperator(request.op_code, request.op_param);
    return ExecuteSelect(request.strategy, ctx, Value(request.selector),
                         kInvalidTupleId, *op.value());
  }

  JoinResult DirectJoin(const JoinRequest& request) {
    SpatialJoinContext ctx;
    ctx.r_tree = &direct_->r;
    ctx.s_tree = &direct_->s;
    Result<std::unique_ptr<ThetaOperator>> op =
        MakeWireOperator(request.op_code, request.op_param);
    return ExecuteJoin(request.strategy, ctx, *op.value());
  }

  static void ExpectSameResult(const Reply& reply, const JoinResult& truth) {
    ASSERT_EQ(reply.type, MessageType::kResult) << reply.error_message;
    EXPECT_EQ(reply.result.matches, truth.matches);
    EXPECT_EQ(reply.result.theta_upper_tests, truth.theta_upper_tests);
    EXPECT_EQ(reply.result.theta_tests, truth.theta_tests);
    EXPECT_EQ(reply.result.nodes_accessed, truth.nodes_accessed);
    EXPECT_EQ(reply.result.qual_pairs_examined, truth.qual_pairs_examined);
  }

  exec::ThreadPool pool_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<FrozenPair> direct_;
};

TEST_F(ServerTest, PingRoundTrip) {
  StartServer({});
  std::unique_ptr<ServiceClient> client = Connect();
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, SelectIsByteIdenticalToDirectExecution) {
  StartServer({});
  std::unique_ptr<ServiceClient> client = Connect();
  const Rectangle windows[] = {Rectangle(100, 100, 400, 400),
                               Rectangle(0, 0, 50, 50),
                               Rectangle(0, 0, 600, 600)};
  for (const Rectangle& window : windows) {
    const SelectRequest request = OverlapSelect(0, window);
    Result<Reply> reply = client->Select(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ExpectSameResult(reply.value(), DirectSelect(request));
  }
}

TEST_F(ServerTest, JoinIsByteIdenticalToDirectExecution) {
  StartServer({});
  std::unique_ptr<ServiceClient> client = Connect();
  for (uint8_t op_code = 1; op_code <= 6; ++op_code) {
    JoinRequest request = OverlapJoin(0);
    request.op_code = op_code;
    request.op_param = 12.0;  // within_distance uses it; others ignore
    Result<Reply> reply = client->Join(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ExpectSameResult(reply.value(), DirectJoin(request));
  }
}

TEST_F(ServerTest, BadRequestsGetTypedErrorReplies) {
  StartServer({});
  std::unique_ptr<ServiceClient> client = Connect();

  Result<Reply> reply = client->Join(OverlapJoin(99));  // unknown dataset
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, MessageType::kError);
  EXPECT_EQ(reply.value().error_code, StatusCode::kNotFound);

  // JOIN strategies the wire does not serve: valid enum values, the
  // pooled ones included, since a served query runs on one worker.
  for (const JoinStrategy strategy :
       {JoinStrategy::kNestedLoop, JoinStrategy::kParallelTreeJoin,
        JoinStrategy::kPartitionedJoin}) {
    JoinRequest unserved = OverlapJoin(0);
    unserved.strategy = strategy;
    reply = client->Join(unserved);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, MessageType::kError);
    EXPECT_EQ(reply.value().error_code, StatusCode::kInvalidArgument)
        << JoinStrategyName(strategy);
  }

  SelectRequest bad_op = OverlapSelect(0, Rectangle(0, 0, 1, 1));
  bad_op.op_code = 200;
  reply = client->Select(bad_op);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, MessageType::kError);
  EXPECT_EQ(reply.value().error_code, StatusCode::kInvalidArgument);

  // SELECT strategies the wire does not serve: a valid enum value, and
  // the byte past the last one.
  for (const SelectStrategy strategy :
       {SelectStrategy::kExhaustive, static_cast<SelectStrategy>(3)}) {
    SelectRequest unserved = OverlapSelect(0, Rectangle(0, 0, 1, 1));
    unserved.strategy = strategy;
    reply = client->Select(unserved);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, MessageType::kError);
    EXPECT_EQ(reply.value().error_code, StatusCode::kInvalidArgument)
        << static_cast<int>(strategy);
  }
}

TEST_F(ServerTest, ConcurrentMixedClientsAllGetCorrectReplies) {
  // Admission effectively unbounded: this test pins correctness under
  // concurrency; the backpressure test below pins the bound.
  Server::Options options;
  options.max_inflight = 1 << 20;
  StartServer(options);

  const SelectRequest select_request =
      OverlapSelect(0, Rectangle(100, 100, 400, 400));
  const JoinRequest join_request = OverlapJoin(0);
  const JoinResult select_truth = DirectSelect(select_request);
  const JoinResult join_truth = DirectJoin(join_request);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 24;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<std::unique_ptr<ServiceClient>> client =
          ServiceClient::Connect(server_->socket_path());
      if (!client.ok()) {
        failures[c] = 1000;
        return;
      }
      // Pipeline everything, then collect out-of-order.
      std::vector<uint64_t> ids;
      std::vector<bool> is_join;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const bool join = (i + c) % 2 == 0;
        Result<uint64_t> id =
            join ? client.value()->SendJoin(join_request)
                 : client.value()->SendSelect(select_request);
        if (!id.ok()) {
          ++failures[c];
          continue;
        }
        ids.push_back(id.value());
        is_join.push_back(join);
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        Result<Reply> reply = client.value()->WaitReply(ids[i]);
        if (!reply.ok() || reply.value().type != MessageType::kResult) {
          ++failures[c];
          continue;
        }
        const JoinResult& truth = is_join[i] ? join_truth : select_truth;
        if (reply.value().result.matches != truth.matches) ++failures[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }

  // A reply is written before the scheduler retires its slot, so drain
  // briefly: the last replies may still be microseconds ahead of their
  // `completed` increments.
  QueryScheduler::Stats stats = server_->scheduler_stats();
  for (int spin = 0; spin < 2000 && stats.completed != stats.admitted;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server_->scheduler_stats();
  }
  EXPECT_EQ(stats.admitted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.completed, stats.admitted);
}

TEST_F(ServerTest, BackpressureRejectsBeyondTheInflightBound) {
  // One slot only. The first (heavy) join occupies it; the session reader
  // admits requests inline and in order, so every select pipelined behind
  // the join is decoded while the join still runs — each must bounce with
  // RESOURCE_EXHAUSTED rather than queue.
  Server::Options options;
  options.max_inflight = 1;
  StartServer(options, /*with_heavy=*/true);
  std::unique_ptr<ServiceClient> client = Connect();

  JoinRequest heavy = OverlapJoin(1);
  heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy.op_param = 1200.0;  // every pair qualifies: a long, steady join
  Result<uint64_t> heavy_id = client->SendJoin(heavy);
  ASSERT_TRUE(heavy_id.ok());

  constexpr int kProbes = 20;
  std::vector<uint64_t> probe_ids;
  for (int i = 0; i < kProbes; ++i) {
    Result<uint64_t> id =
        client->SendSelect(OverlapSelect(0, Rectangle(0, 0, 10, 10)));
    ASSERT_TRUE(id.ok());
    probe_ids.push_back(id.value());
  }

  int rejected = 0;
  for (uint64_t id : probe_ids) {
    Result<Reply> reply = client->WaitReply(id);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply.value().type == MessageType::kError) {
      EXPECT_EQ(reply.value().error_code, StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GE(server_->scheduler_stats().rejected, rejected);

  // The heavy query is undeliverable in one frame (every pair matched);
  // what matters here is that it *completes* and frees its slot.
  Result<Reply> heavy_reply = client->WaitReply(heavy_id.value());
  ASSERT_TRUE(heavy_reply.ok());
}

TEST_F(ServerTest, CancelMidFlightReturnsCancelled) {
  StartServer({}, /*with_heavy=*/true);
  std::unique_ptr<ServiceClient> client = Connect();

  JoinRequest heavy = OverlapJoin(1);
  heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy.op_param = 1200.0;  // 2500×2500 all-match: seconds of work
  Result<uint64_t> id = client->SendJoin(heavy);
  ASSERT_TRUE(id.ok());

  // The reader admits the join before it decodes the cancel (same
  // pipeline, in order), and the join runs far longer than the gap, so
  // the cancel lands mid-flight deterministically.
  ASSERT_TRUE(client->Cancel(id.value()).ok());

  Result<Reply> reply = client->WaitReply(id.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, MessageType::kError);
  EXPECT_EQ(reply.value().error_code, StatusCode::kCancelled);
}

TEST_F(ServerTest, PastDeadlineQueryReturnsDeadlineExceeded) {
  StartServer({}, /*with_heavy=*/true);
  std::unique_ptr<ServiceClient> client = Connect();

  JoinRequest heavy = OverlapJoin(1);
  heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy.op_param = 1200.0;
  heavy.deadline_ns = 2'000'000;  // 2ms against seconds of work

  Result<Reply> reply = client->Join(heavy);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, MessageType::kError);
  EXPECT_EQ(reply.value().error_code, StatusCode::kDeadlineExceeded);
}

TEST_F(ServerTest, ServerDefaultDeadlineAppliesWhenRequestCarriesNone) {
  Server::Options options;
  options.default_deadline_ns = 2'000'000;
  StartServer(options, /*with_heavy=*/true);
  std::unique_ptr<ServiceClient> client = Connect();

  JoinRequest heavy = OverlapJoin(1);
  heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy.op_param = 1200.0;  // no per-request deadline
  Result<Reply> reply = client->Join(heavy);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().type, MessageType::kError);
  EXPECT_EQ(reply.value().error_code, StatusCode::kDeadlineExceeded);
}

TEST_F(ServerTest, DisconnectMidFlightCancelsOrphanedQueries) {
  StartServer({}, /*with_heavy=*/true);
  {
    std::unique_ptr<ServiceClient> client = Connect();
    JoinRequest heavy = OverlapJoin(1);
    heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
    heavy.op_param = 1200.0;
    ASSERT_TRUE(client->SendJoin(heavy).ok());
    // Client vanishes with the join in flight.
  }
  // Stop() drains the scheduler: if the orphaned query were not
  // cancelled, this would sit through seconds of doomed work; with the
  // disconnect-cancel it returns at the next level boundary. Completing
  // promptly *is* the assertion (and the exec audit below pins the
  // cleanliness).
  server_->Stop();
  audit::AuditReport report = audit::AuditThreadPool(pool_);
  EXPECT_TRUE(report.ok()) << report.ToJson();
  EXPECT_TRUE(pool_.Quiescent());
}

TEST_F(ServerTest, GarbageStreamGetsErrorReplyThenDisconnect) {
  StartServer({});

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::memcpy(addr.sun_path, server_->socket_path().c_str(),
           server_->socket_path().size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  const std::string garbage(64, '\x5a');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with one connection-level error frame (request id
  // 0), then closes.
  std::string bytes;
  char buf[512];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kError));
  EXPECT_EQ(frame.request_id, 0u);
  Result<Reply> reply =
      DecodeReply(MessageType::kError, frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().error_code, StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, StatsRoundTripReflectsTheWorkload) {
  // ServiceTelemetry is process-global and cumulative across the tests
  // in this binary; reset so the counts below are this test's own.
  ServiceTelemetry::Global().Reset();
  StartServer({});
  std::unique_ptr<ServiceClient> client = Connect();

  int64_t pairs_examined = 0;
  for (int i = 0; i < 3; ++i) {
    Result<Reply> reply =
        client->Select(OverlapSelect(0, Rectangle(100, 100, 400, 400)));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, MessageType::kResult);
    pairs_examined += reply.value().result.theta_upper_tests;
  }
  Result<Reply> join_reply = client->Join(OverlapJoin(0));
  ASSERT_TRUE(join_reply.ok());
  ASSERT_EQ(join_reply.value().type, MessageType::kResult);
  const JoinResult& joined = join_reply.value().result;
  pairs_examined += joined.theta_upper_tests;

  // A reply reaches the client before the scheduler's completion
  // bookkeeping necessarily finishes, so "completed" may briefly trail
  // the 4 replies observed above: poll until it drains (bounded).
  std::string json;
  JsonDocument stats;
  for (int attempt = 0; attempt < 200; ++attempt) {
    Result<std::string> reply = client->Stats();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    json = reply.value();
    stats = ParseJson(json);
    ASSERT_TRUE(stats.ok()) << stats.error << "\n" << json;
    if (stats.root.IntAt("scheduler.completed") == 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // The scheduler section is this server instance's own; registry-backed
  // totals ("queries") are process-cumulative across the suite, so the
  // `recent` ring — reset above — carries the exact ok count.
  EXPECT_EQ(stats.root.IntAt("stats_version", -1), 3);
  EXPECT_EQ(stats.root.Member("per_session"), nullptr) << json;
  EXPECT_EQ(stats.root.Member("per_dataset"), nullptr) << json;
  EXPECT_EQ(stats.root.IntAt("scheduler.admitted", -1), 4) << json;
  EXPECT_EQ(stats.root.IntAt("scheduler.completed", -1), 4) << json;
  EXPECT_EQ(stats.root.IntAt("scheduler.inflight", -1), 0) << json;
  const JsonValue* recent = stats.root.Member("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->items().size(), 4u) << json;
  const JsonValue& join_record = recent->items().back();
  EXPECT_EQ(join_record.StringAt("kind"), "join");
  EXPECT_EQ(join_record.IntAt("pairs_examined", -1),
            joined.theta_upper_tests);
  EXPECT_EQ(join_record.IntAt("qual_pairs", -1), joined.qual_pairs_examined);
  EXPECT_EQ(join_record.IntAt("theta_tests", -1), joined.theta_tests);
  EXPECT_EQ(join_record.IntAt("nodes_accessed", -1), joined.nodes_accessed);
  // Records carry measured counts and no prediction: the filter pass rate
  // is theta_tests / pairs_examined of any record.
  int ok = 0;
  int64_t recorded_pairs = 0;
  for (const JsonValue& record : recent->items()) {
    EXPECT_EQ(record.Member("residual"), nullptr) << json;
    EXPECT_LE(record.IntAt("theta_tests", -1),
              record.IntAt("pairs_examined", -1))
        << json;
    ok += record.StringAt("outcome") == "ok" ? 1 : 0;
    recorded_pairs += record.IntAt("pairs_examined", -1);
  }
  EXPECT_EQ(ok, 4) << json;
  // Pair counts are the results' own fields.
  EXPECT_EQ(recorded_pairs, pairs_examined) << json;
  EXPECT_NE(json.find("\"slow_by_latency\""), std::string::npos);
  EXPECT_EQ(stats.root.Member("slow_by_residual"), nullptr) << json;
  EXPECT_NE(json.find("\"tree_join\""), std::string::npos) << json;

  // STATS is answered inline by the reader thread: it must not count as
  // an admitted query, and repeated polls stay consistent.
  Result<std::string> again = client->Stats();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ParseJson(again.value()).root.IntAt("scheduler.admitted", -1),
            4);
}

TEST_F(ServerTest, StatsWithPayloadIsRejected) {
  StartServer({});

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::memcpy(addr.sun_path, server_->socket_path().c_str(),
           server_->socket_path().size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  // Hand-build a STATS frame that illegally carries a payload byte.
  std::string wire = EncodeStatsRequest(5);
  wire[0] = 1;  // payload_len = 1
  wire.push_back('x');
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  // Unlike the garbage-stream case this is a *request-level* error: the
  // reply arrives under the request's id and the connection stays open,
  // so read exactly one frame rather than draining to EOF.
  FrameDecoder decoder;
  Frame frame;
  char buf[512];
  bool got_frame = false;
  while (!got_frame) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    ASSERT_TRUE(decoder.Feed(std::string_view(buf, static_cast<size_t>(n)))
                    .ok());
    got_frame = decoder.Next(&frame);
  }
  ::close(fd);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kError));
  EXPECT_EQ(frame.request_id, 5u);
  Result<Reply> reply =
      DecodeReply(MessageType::kError, frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().error_code, StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, LifecycleEventsAreNotLoggedAsQueryEvents) {
  // Server and session lifecycle events are plain messages, so a flight
  // dump's event tail never shows a connection as a query event.
  const uint64_t before = EventLog::Global().total();
  StartServer({});
  {
    std::unique_ptr<ServiceClient> client = Connect();
    EXPECT_TRUE(client->Ping().ok());
  }
  server_->Stop();  // joins the session reader, which logs the close
  int lifecycle_messages = 0;
  const std::vector<EventView> tail =
      EventLog::Global().Tail(EventLog::kDefaultCapacity);
  for (const EventView& e : tail) {
    if (e.seq <= before) continue;
    const bool names_lifecycle =
        e.message.find("session") != std::string::npos ||
        e.message.find("server") != std::string::npos;
    if (!names_lifecycle) continue;
    EXPECT_EQ(e.type, EventType::kMessage) << e.message;
    if (e.type == EventType::kMessage) ++lifecycle_messages;
  }
  // Listening, opened, closed, stopped.
  EXPECT_EQ(lifecycle_messages, 4);
}

TEST_F(ServerTest, StopIsIdempotentAndRestartOnSamePathWorks) {
  Server::Options options;
  options.socket_path = Server::DefaultSocketPath();
  StartServer(options);
  {
    std::unique_ptr<ServiceClient> client = Connect();
    EXPECT_TRUE(client->Ping().ok());
  }
  server_->Stop();
  server_->Stop();  // idempotent

  // A fresh server may reuse the path (stale-socket unlink on bind).
  Server second(&pool_, options);
  FrozenPair pair = MakeFrozenPair(61, 62, 50);
  second.RegisterDataset(std::move(pair.r), std::move(pair.s));
  ASSERT_TRUE(second.Start().ok());
  Result<std::unique_ptr<ServiceClient>> client =
      ServiceClient::Connect(second.socket_path());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

TEST_F(ServerTest, ClosedSessionsReleaseTheirDescriptors) {
  StartServer({});
  {
    TimedConnection first(server_->socket_path(), 5000);
    ASSERT_TRUE(first.Ping());
  }
  const int before = OpenDescriptorCount();
  ASSERT_GT(before, 0);
  // One I/O thread serves every session: open sessions add no thread.
  const int threads = ThreadCount();
  ASSERT_GT(threads, 0);
  {
    std::vector<std::unique_ptr<TimedConnection>> idle;
    for (int i = 0; i < 64; ++i) {
      idle.push_back(
          std::make_unique<TimedConnection>(server_->socket_path(), 5000));
      ASSERT_TRUE(idle.back()->Ping()) << "session " << i;
    }
    EXPECT_EQ(ThreadCount(), threads);
  }
  for (int cycle = 0; cycle < 2000; ++cycle) {
    TimedConnection connection(server_->socket_path(), 5000);
    ASSERT_TRUE(connection.Ping()) << "cycle " << cycle;
  }
  // The loop sees the last closes asynchronously; give it a moment.
  int after = OpenDescriptorCount();
  for (int wait = 0; wait < 200 && after > before + 4; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = OpenDescriptorCount();
  }
  EXPECT_LE(after, before + 4);
  EXPECT_EQ(ThreadCount(), threads);
  TimedConnection last(server_->socket_path(), 5000);
  EXPECT_TRUE(last.Ping());
}

#if defined(__SANITIZE_THREAD__)
#define SJ_UNDER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SJ_UNDER_TSAN 1
#endif
#endif

// The child of AcceptSurvivesDescriptorExhaustion; returns its exit code
// (0 = a connection queued while descriptors ran out was served once
// they were freed).
int ServeThroughDescriptorExhaustion() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 10;
  limit.rlim_cur = static_cast<rlim_t>(OpenDescriptorCount() + 16);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 11;
  exec::ThreadPool pool(1);
  Server server(&pool, {});
  if (!server.Start().ok()) return 12;
  // A first session, kept open, shows the accept loop is up; let it get
  // back into accept().
  TimedConnection first(server.socket_path(), 5000);
  if (!first.Ping()) return 13;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Hold every free descriptor but one, which client A's socket takes.
  std::vector<int> held;
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    held.push_back(fd);
  }
  if (errno != EMFILE || held.size() < 2) return 14;
  ::close(held.back());
  held.pop_back();
  TimedConnection a(server.socket_path(), 200);
  if (!a.SendPing(1)) return 15;
  TimedConnection* waiting = &a;
  std::optional<TimedConnection> b;
  if (a.AwaitPong(1)) {
    // Linux's accept() reserves its descriptor on entry, so the waiting
    // call served A; the loop's next accept() fails with EMFILE, and
    // client B waits in the backlog.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(held.back());
    held.pop_back();
    b.emplace(server.socket_path(), 200);
    if (!b->SendPing(1)) return 16;
    if (b->AwaitPong(1)) return 17;  // served with no descriptor free?
    waiting = &*b;
  }
  for (int fd : held) ::close(fd);
  for (int attempt = 0; attempt < 25; ++attempt) {
    if (waiting->AwaitPong(1)) return 0;
  }
  return 18;  // the accept loop gave up
}

// Plain TEST, not the fixture: the fork happens before any pool exists.
TEST(ServerAcceptTest, AcceptSurvivesDescriptorExhaustion) {
#ifdef SJ_UNDER_TSAN
  GTEST_SKIP() << "ThreadSanitizer does not support threads after fork";
#endif
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(30);  // a hang kills the child, and fails the test
    ::_exit(ServeThroughDescriptorExhaustion());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died with signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServerTest, ServedQueriesRecordNoEvents) {
  // One slot, so a select sent behind a running join is rejected.
  Server::Options options;
  options.max_inflight = 1;
  StartServer(options, /*with_heavy=*/true);
  // Slow-query events are their own, thresholded record; keep the heavy
  // joins below under the threshold (Reset restores the default).
  ServiceTelemetry::Global().SetSlowEventThresholdNs(int64_t{3600} *
                                                     1'000'000'000);
  std::unique_ptr<ServiceClient> client = Connect();
  ASSERT_TRUE(client->Ping().ok());  // the session's opening is logged
  const uint64_t before = EventLog::Global().total();
  // A reply can reach the client just before its query frees the slot.
  auto await_free_slot = [&] {
    for (int i = 0; i < 2000 && server_->scheduler_stats().inflight > 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  Result<Reply> select =
      client->Select(OverlapSelect(0, Rectangle(0, 0, 300, 300)));
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(select.value().type, MessageType::kResult);
  await_free_slot();
  Result<Reply> join = client->Join(OverlapJoin(0));
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.value().type, MessageType::kResult);

  JoinRequest heavy = OverlapJoin(1);
  heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy.op_param = 1200.0;
  await_free_slot();
  Result<uint64_t> heavy_id = client->SendJoin(heavy);
  ASSERT_TRUE(heavy_id.ok());
  Result<Reply> rejected =
      client->Select(OverlapSelect(0, Rectangle(0, 0, 10, 10)));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().error_code, StatusCode::kResourceExhausted);
  ASSERT_TRUE(client->Cancel(heavy_id.value()).ok());
  Result<Reply> cancelled = client->WaitReply(heavy_id.value());
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled.value().error_code, StatusCode::kCancelled);
  heavy.deadline_ns = 2'000'000;
  await_free_slot();
  Result<Reply> late = client->Join(heavy);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().error_code, StatusCode::kDeadlineExceeded);

  // Every reply is in, so every query's accounting is done. A worker may
  // log a spurious parking anomaly (thread_pool.cc); nothing else may
  // appear.
  for (const EventView& e :
       EventLog::Global().Tail(EventLog::kDefaultCapacity)) {
    if (e.seq > before && e.type != EventType::kPoolAnomaly) {
      ADD_FAILURE() << EventTypeName(e.type) << ": " << e.message;
    }
  }
  ServiceTelemetry::Global().Reset();
}

TEST_F(ServerTest, EachServedQueryIsOneActivity) {
  char dir_template[] = "/tmp/sj_activity_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dump_path =
      std::string(dir_template) + "/activity.flightdump.json";
  FlightRecorderOptions recorder;
  recorder.dump_path = dump_path;
  recorder.install_signal_handlers = false;
  FlightRecorder::Install(recorder);

  StartServer({}, /*with_heavy=*/true);
  std::unique_ptr<ServiceClient> client = Connect();
  JoinRequest heavy = OverlapJoin(1);
  heavy.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy.op_param = 1200.0;  // seconds of work
  Result<uint64_t> id = client->SendJoin(heavy);
  ASSERT_TRUE(id.ok());

  // Dump until the running join shows up in the activity table.
  std::vector<JsonValue> activities;
  int query_rows = 0;
  for (int attempt = 0; attempt < 1000 && query_rows == 0; ++attempt) {
    ASSERT_TRUE(FlightRecorder::Dump("explicit", "activity test"));
    std::ifstream in(dump_path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonDocument doc = ParseJson(text.str());
    ASSERT_TRUE(doc.ok()) << doc.error;
    const JsonValue* rows = doc.root.Member("activities");
    ASSERT_NE(rows, nullptr);
    activities = rows->items();
    query_rows = 0;
    for (const JsonValue& row : activities) {
      if (row.StringAt("kind").rfind("query.", 0) == 0) ++query_rows;
    }
    if (query_rows == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(client->Cancel(id.value()).ok());
  ASSERT_TRUE(client->WaitReply(id.value()).ok());
  ::unlink(dump_path.c_str());
  ::rmdir(dir_template);

  // Exactly one row for the query, labelled with who asked; apart from
  // it only the server's one I/O loop and pool workers.
  EXPECT_EQ(query_rows, 1);
  int loop_rows = 0;
  for (const JsonValue& row : activities) {
    const std::string kind = row.StringAt("kind");
    if (kind.rfind("query.", 0) == 0) {
      EXPECT_EQ(kind, "query.join");
      EXPECT_EQ(row.StringAt("label"), "tree_join");
      EXPECT_EQ(row.StringAt("detail"),
                "sess0 req" + std::to_string(id.value()));
    } else if (kind == "server.loop") {
      ++loop_rows;
    } else {
      EXPECT_EQ(kind, "pool.worker") << row.StringAt("label");
    }
  }
  EXPECT_EQ(loop_rows, 1);
}

TEST_F(ServerTest, StalledReadersDoNotHoldPoolWorkers) {
  StartServer({}, /*with_heavy=*/true);
  // One client per pool worker pipelines overlap joins on the heavy pair,
  // whose replies (~0.3 MB) overflow a socket buffer, and never reads.
  std::vector<std::unique_ptr<TimedConnection>> stalled;
  for (int i = 0; i < pool_.num_workers(); ++i) {
    stalled.push_back(
        std::make_unique<TimedConnection>(server_->socket_path(), 5000));
  }
  uint64_t request_id = 1;
  for (int round = 0; round < 12; ++round) {
    for (auto& connection : stalled) {
      ASSERT_TRUE(
          connection->Send(EncodeJoinRequest(request_id++, OverlapJoin(1))));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Every admitted join finishes: its reply waits in its session's
  // queue, not in a pool worker's send().
  EXPECT_TRUE(WaitFor(
      [&] { return server_->scheduler_stats().inflight == 0; }, 20));
  std::unique_ptr<ServiceClient> client = Connect();
  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    Result<Reply> reply =
        client->Select(OverlapSelect(0, Rectangle(100, 100, 400, 400)));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply.value().type == MessageType::kResult) ++answered;
  }
  EXPECT_EQ(answered, 20);
}

TEST_F(ServerTest, StalledReaderQueuesAtMostAFrameOfReplies) {
  StartServer({}, /*with_heavy=*/true);
  Counter* closed =
      MetricsRegistry::Global().GetCounter("server.sessions.closed");
  auto stalled =
      std::make_unique<TimedConnection>(server_->socket_path(), 5000);
  for (uint64_t id = 1; id <= 200; ++id) {
    ASSERT_TRUE(stalled->Send(EncodeJoinRequest(id, OverlapJoin(1))));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(WaitFor(
      [&] { return server_->scheduler_stats().inflight == 0; }, 20));
  // Once more than one frame's bytes (~14 replies) are queued, the loop
  // stops reading the session: the rest of the joins stay in its socket.
  EXPECT_LT(server_->scheduler_stats().admitted, 25);

  // A session stalled with replies queued is still reaped when its
  // client goes.
  const int64_t closed_before = closed->Value();
  stalled.reset();
  EXPECT_TRUE(WaitFor([&] { return closed->Value() > closed_before; }, 5));
}

TEST_F(ServerTest, RequestSentByteByByteGetsOneReply) {
  StartServer({});
  TimedConnection connection(server_->socket_path(), 5000);
  const SelectRequest request =
      OverlapSelect(0, Rectangle(100, 100, 400, 400));
  for (const char byte : EncodeSelectRequest(7, request)) {
    ASSERT_TRUE(connection.Send(std::string(1, byte)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Frame frame;
  ASSERT_TRUE(connection.NextFrame(&frame));
  ASSERT_EQ(frame.request_id, 7u);
  Result<Reply> reply = DecodeReply(static_cast<MessageType>(frame.type),
                                    frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ExpectSameResult(reply.value(), DirectSelect(request));
  // Exactly one reply: the next frame answers a later ping.
  EXPECT_TRUE(connection.Ping());
}

TEST_F(ServerTest, DisconnectMidReplyReapsTheSession) {
  StartServer({}, /*with_heavy=*/true);
  Counter* closed =
      MetricsRegistry::Global().GetCounter("server.sessions.closed");
  const int64_t closed_before = closed->Value();
  {
    // The reply (~0.3 MB) is more than the socket holds: read its start
    // and go while the rest is still being written.
    TimedConnection connection(server_->socket_path(), 5000);
    ASSERT_TRUE(connection.Send(EncodeJoinRequest(1, OverlapJoin(1))));
    ASSERT_TRUE(connection.ReceiveSome());
  }
  EXPECT_TRUE(WaitFor([&] { return closed->Value() > closed_before; }, 5));
  std::unique_ptr<ServiceClient> client = Connect();
  for (int i = 0; i < 3; ++i) {
    const SelectRequest request =
        OverlapSelect(0, Rectangle(100, 100, 400, 400));
    Result<Reply> reply = client->Select(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ExpectSameResult(reply.value(), DirectSelect(request));
  }
}

// Plain TEST: the server runs on its own one-worker pool.
TEST(ServerDeadlineTest, QueuedQueryPastItsDeadlineIsNotRun) {
  exec::ThreadPool pool(1);
  Server::Options options;
  options.max_inflight = 2;
  Server server(&pool, options);
  FrozenPair heavy = MakeFrozenPair(51, 52, 2500);
  ASSERT_EQ(server.RegisterDataset(std::move(heavy.r), std::move(heavy.s)),
            0u);
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<ServiceClient>> connected =
      ServiceClient::Connect(server.socket_path());
  ASSERT_TRUE(connected.ok());
  ServiceClient& client = *connected.value();
  ServiceTelemetry::Global().Reset();

  // The join (all pairs match: seconds of work) holds the only worker;
  // the select queues behind it for ~50 ms against a 2 ms deadline.
  JoinRequest heavy_join = OverlapJoin(0);
  heavy_join.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  heavy_join.op_param = 1200.0;
  Result<uint64_t> join_id = client.SendJoin(heavy_join);
  ASSERT_TRUE(join_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  SelectRequest select = OverlapSelect(0, Rectangle(0, 0, 50, 50));
  select.deadline_ns = 2'000'000;
  Result<uint64_t> select_id = client.SendSelect(select);
  ASSERT_TRUE(select_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.Cancel(join_id.value()).ok());

  Result<Reply> reply = client.WaitReply(select_id.value());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, MessageType::kError);
  EXPECT_EQ(reply.value().error_code, StatusCode::kDeadlineExceeded);
  Result<Reply> join = client.WaitReply(join_id.value());
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join.value().error_code, StatusCode::kCancelled);

  // It never ran: its record says deadline, with no Θ test.
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  const JsonDocument doc = ParseJson(stats.value());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue* recent = doc.root.Member("recent");
  ASSERT_NE(recent, nullptr);
  int select_records = 0;
  for (const JsonValue& record : recent->items()) {
    if (record.StringAt("kind") != "select") continue;
    ++select_records;
    EXPECT_EQ(record.StringAt("outcome"), "deadline");
    EXPECT_EQ(record.IntAt("pairs_examined", -1), 0);
  }
  EXPECT_EQ(select_records, 1) << stats.value();
  ServiceTelemetry::Global().Reset();
}

}  // namespace
}  // namespace server
}  // namespace spatialjoin
