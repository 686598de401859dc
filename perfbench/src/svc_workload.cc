// svc_steady / svc_overload: an in-process query service (default
// Server::Options on a 3-worker pool) fed by an open-loop generator on
// this thread. The generator precomputes a seeded schedule — uniformly
// spaced requests, a 50/50 mix of SELECT over seeded windows and
// tree_join JOIN on one small dataset pair — and drives non-blocking
// Unix sockets with ppoll, timing every request from its due time to its
// decoded reply. A seeded quarter of the replies is compared with
// ExecuteSelect / ExecuteJoin on the same FrozenTrees. Rejected and
// deadline-stopped requests are shed, not failed: they count in fail_frac
// and against goodput, while a wrong, lost or otherwise erroneous reply
// fails the run. The run is cut into segments, each a spare set-up, a
// batch of in-process joins and a slice of the schedule, so that every
// series is sampled across the whole run.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/join.h"
#include "core/select.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "exec/thread_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

using namespace spatialjoin;
using namespace spatialjoin::server;

namespace {

// Set-up takes milliseconds here, so it is repeated more often than the
// join workloads' to steady its median: kSetupReps in all, of which
// kSegmentSetups at the start of each measured segment.
constexpr int kSetupReps = 25;
constexpr int kSegmentSetups = 1;
constexpr int kServiceWorkers = 3;  // + the generator thread = 4 busy
constexpr int kConnections = 2;
constexpr int kWindows = 64;
// The run alternates kSegments times between in-process joins and a slice
// of the open-loop load, so a host slowdown of a few seconds shifts each
// series a little instead of one of them a lot (the median of a 2 s block
// of in-process joins moved by up to 25% between runs of one seed).
constexpr int kSegments = 20;
constexpr int kInProcessReps = 800;  // in total, kInProcessReps / kSegments per segment
// Offered rates: about 0.4x and 2x the mix's capacity, which measured
// ~620 qps at 3 workers on a 4-core x86 VM.
constexpr double kSteadyQps = 250.0;
constexpr double kOverloadQps = 1250.0;
// Deadline carried by every svc_overload request, and the latency limit
// of goodput on both service workloads.
constexpr int64_t kLimitNs = 25'000'000;
// The generator is valid while its p99 lateness stays under this.
constexpr double kLateBoundMs = 2.0;
constexpr int64_t kDrainNs = 5'000'000'000;

using Matches = std::vector<std::pair<int64_t, int64_t>>;

DataSpec ServiceSpec() {
  DataSpec spec;
  spec.shape = Shape::kRect;
  spec.tuples = 2000;
  spec.world = 1342.0;
  spec.min_size = 2.0;
  spec.max_size = 30.0;
  spec.rtree_fanout = 8;
  spec.pool_frames = 512;
  return spec;
}

// The server and the pool it runs on; the server is declared last so it
// stops before the pool goes away.
struct Service {
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<Server> server;
};

struct Planned {
  int64_t due_ns = 0;
  bool join = false;
  bool check = false;
  uint32_t window = 0;
  int conn = 0;
  // Filled by the generator.
  int64_t sent_ns = 0;
  int64_t span = -1;
  bool answered = false;
};

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  FrameDecoder decoder;
};

struct LoadResult {
  std::vector<double> select_ms, join_ms, late_ms, encode_ns, decode_ns;
  int64_t ok = 0, ok_in_limit = 0, rejected = 0, deadline = 0, errors = 0,
          wrong = 0, unanswered = 0, transport_errors = 0;
  int64_t reply_bytes = 0, replies = 0;
  int64_t checked = 0;
  double wall_s = 0.0;
  double offered_qps = 0.0;
};

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Writes as much of the connection's pending output as the socket takes.
bool Flush(Connection* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    c->out_off += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

// Number that follows `"key": ` after the first `"section"` in a STATS
// document (0 when absent).
double StatsNumber(const std::string& json, const char* section,
                   const char* key) {
  const size_t at = json.find(std::string("\"") + section + "\"");
  if (at == std::string::npos) return 0.0;
  const std::string k = std::string("\"") + key + "\": ";
  const size_t pos = json.find(k, at);
  return pos == std::string::npos ? 0.0 : std::atof(json.c_str() + pos + k.size());
}

class Generator {
 public:
  Generator(std::vector<Planned>* plan, const std::vector<Rectangle>& windows,
            const std::vector<Matches>& select_expected,
            const Matches& join_expected, bool overload, Tracer* tracer,
            Report* report)
      : plan_(*plan),
        windows_(windows),
        select_expected_(select_expected),
        join_expected_(join_expected),
        overload_(overload),
        tracer_(tracer),
        report_(report) {}

  LoadResult Run(const std::string& socket_path) {
    LoadResult res;
    conns_.resize(kConnections);
    for (Connection& c : conns_) {
      c.fd = ConnectUnix(socket_path);
      if (c.fd < 0) {
        report_->Attempt(false, "cannot connect to " + socket_path);
        CloseAll();
        return res;
      }
    }
    const int64_t first_due = plan_.front().due_ns;
    res.offered_qps =
        plan_.size() > 1 ? static_cast<double>(plan_.size() - 1) * 1e9 /
                               static_cast<double>(plan_.back().due_ns - first_due)
                         : 0.0;
    const int64_t give_up = plan_.back().due_ns + kDrainNs;
    size_t next = 0;
    int64_t outstanding = 0;
    int64_t last_reply = first_due;
    std::vector<pollfd> fds(conns_.size());
    char buf[1 << 16];
    while (next < plan_.size() || outstanding > 0) {
      int64_t now = NowNs();
      if (now > give_up) break;
      while (next < plan_.size() && plan_[next].due_ns <= now) {
        Send(next, &res);
        ++next;
        ++outstanding;
        now = NowNs();
      }
      const int64_t wait_ns =
          next < plan_.size()
              ? std::clamp<int64_t>(plan_[next].due_ns - now, 0, 1'000'000)
              : 1'000'000;
      for (size_t i = 0; i < conns_.size(); ++i) {
        fds[i] = {conns_[i].fd,
                  static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)),
                  0};
      }
      const timespec ts{0, static_cast<long>(wait_ns)};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (size_t i = 0; i < conns_.size(); ++i) {
        Connection& c = conns_[i];
        if (fds[i].revents & (POLLERR | POLLNVAL)) {
          ++res.transport_errors;
          return Finish(&res, last_reply, first_due);
        }
        if ((fds[i].revents & POLLOUT) && !Flush(&c)) {
          ++res.transport_errors;
          return Finish(&res, last_reply, first_due);
        }
        if (!(fds[i].revents & (POLLIN | POLLHUP))) continue;
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            if (!c.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)))
                     .ok()) {
              ++res.transport_errors;
              return Finish(&res, last_reply, first_due);
            }
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          ++res.transport_errors;  // EOF or error: the server went away
          return Finish(&res, last_reply, first_due);
        }
        Frame frame;
        while (c.decoder.Next(&frame)) {
          if (OnReply(frame, &res)) {
            --outstanding;
            last_reply = NowNs();
          }
        }
      }
    }
    return Finish(&res, last_reply, first_due);
  }

 private:
  void Send(size_t i, LoadResult* res) {
    Planned& p = plan_[i];
    p.sent_ns = NowNs();
    res->late_ms.push_back(static_cast<double>(p.sent_ns - p.due_ns) / 1e6);
    p.span = tracer_->Open(p.join ? "loadgen.join" : "loadgen.select",
                           static_cast<int64_t>(i + 1), p.due_ns);
    const int64_t deadline = overload_ ? kLimitNs : 0;
    std::string frame;
    if (p.join) {
      JoinRequest req;
      req.strategy = JoinStrategy::kTreeJoin;
      req.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
      req.deadline_ns = deadline;
      frame = EncodeJoinRequest(i + 1, req);
    } else {
      SelectRequest req;
      req.strategy = SelectStrategy::kTree;
      req.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
      req.selector = windows_[p.window];
      req.deadline_ns = deadline;
      frame = EncodeSelectRequest(i + 1, req);
    }
    const int64_t encoded = NowNs();
    res->encode_ns.push_back(static_cast<double>(encoded - p.sent_ns));
    tracer_->Record("server.encode_request", static_cast<int64_t>(i + 1),
                    p.sent_ns, encoded, p.span);
    Connection& c = conns_[static_cast<size_t>(p.conn)];
    c.out += frame;
    if (!Flush(&c)) ++res->transport_errors;
  }

  // Accounts one reply; false for a frame that answers nothing planned.
  bool OnReply(const Frame& frame, LoadResult* res) {
    const uint64_t id = frame.request_id;
    if (id == 0 || id > plan_.size() || plan_[id - 1].answered) {
      ++res->errors;
      report_->Attempt(false, "reply to an unknown request id");
      return false;
    }
    Planned& p = plan_[id - 1];
    p.answered = true;
    const int64_t start = NowNs();
    Result<Reply> decoded = DecodeReply(static_cast<MessageType>(frame.type),
                                        id, frame.payload);
    const int64_t done = NowNs();
    res->decode_ns.push_back(static_cast<double>(done - start));
    res->reply_bytes += static_cast<int64_t>(kFrameHeaderBytes +
                                             frame.payload.size());
    ++res->replies;
    tracer_->Record("server.decode_reply", static_cast<int64_t>(id), start,
                    done, p.span);
    tracer_->Close(p.span, done);
    const double latency_ms = static_cast<double>(done - p.due_ns) / 1e6;

    if (!decoded.ok()) {
      ++res->errors;
      report_->Attempt(false, "undecodable reply: " +
                                  decoded.status().message());
      return true;
    }
    const Reply& reply = decoded.value();
    if (reply.type == MessageType::kResult) {
      bool right = true;
      if (p.check) {
        ++res->checked;
        right = Normalized(reply.result) ==
                (p.join ? join_expected_ : select_expected_[p.window]);
      }
      if (!right) {
        ++res->wrong;
        report_->Attempt(false, std::string(p.join ? "JOIN" : "SELECT") +
                                    " reply differs from the in-process answer");
        return true;
      }
      ++res->ok;
      if (done - p.due_ns <= kLimitNs) ++res->ok_in_limit;
      (p.join ? res->join_ms : res->select_ms).push_back(latency_ms);
      report_->Attempt(true);
      return true;
    }
    // Rejection at admission and expiry at the deadline are how the
    // service sheds load: not OK, but not a wrong answer either.
    const bool rejected = reply.type == MessageType::kError &&
                          reply.error_code == StatusCode::kResourceExhausted;
    const bool expired = reply.type == MessageType::kError &&
                         reply.error_code == StatusCode::kDeadlineExceeded;
    if (rejected || expired) {
      ++(rejected ? res->rejected : res->deadline);
      report_->Shed();
      return true;
    }
    ++res->errors;
    report_->Attempt(false, "request " + std::to_string(id) + " answered " +
                                StatusCodeName(reply.error_code) + ": " +
                                reply.error_message);
    return true;
  }

  LoadResult Finish(LoadResult* res, int64_t last_reply, int64_t first_due) {
    for (const Planned& p : plan_) {
      if (p.answered) continue;
      ++res->unanswered;
      report_->Attempt(false, "request without a reply");
    }
    if (res->transport_errors > 0) {
      report_->Attempt(false, "transport error on a service connection");
    }
    res->wall_s = static_cast<double>(last_reply - first_due) / 1e9;
    CloseAll();
    return std::move(*res);
  }

  void CloseAll() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  std::vector<Planned>& plan_;
  const std::vector<Rectangle>& windows_;
  const std::vector<Matches>& select_expected_;
  const Matches& join_expected_;
  const bool overload_;
  Tracer* tracer_;
  Report* report_;
  std::vector<Connection> conns_;
};

std::vector<Planned> MakePlan(uint64_t seed, double qps, double seconds,
                              int64_t start_ns) {
  Rng rng(seed);
  const int64_t n = std::max<int64_t>(1, static_cast<int64_t>(qps * seconds));
  const double period_ns = 1e9 / qps;
  std::vector<Planned> plan(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Planned& p = plan[static_cast<size_t>(i)];
    p.due_ns = start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    p.join = rng.NextBernoulli(0.5);
    p.check = rng.NextUint64(4) == 0;
    p.window = static_cast<uint32_t>(rng.NextUint64(kWindows));
    p.conn = static_cast<int>(i % kConnections);
  }
  return plan;
}

// Segment `seg` of kSegments equal slices of `plan`, rescheduled so that
// its first request is due at `start_ns`.
std::vector<Planned> PlanSegment(const std::vector<Planned>& plan, int seg,
                                 int64_t start_ns) {
  const size_t begin = plan.size() * static_cast<size_t>(seg) / kSegments;
  const size_t end = plan.size() * static_cast<size_t>(seg + 1) / kSegments;
  std::vector<Planned> out(plan.begin() + static_cast<std::ptrdiff_t>(begin),
                           plan.begin() + static_cast<std::ptrdiff_t>(end));
  if (out.empty()) return out;
  const int64_t shift = start_ns - out.front().due_ns;
  for (Planned& p : out) p.due_ns += shift;
  return out;
}

// Adds one segment's load to the run's.
void Append(LoadResult* run, const LoadResult& seg) {
  for (auto [to, from] : {std::pair{&run->select_ms, &seg.select_ms},
                          std::pair{&run->join_ms, &seg.join_ms},
                          std::pair{&run->late_ms, &seg.late_ms},
                          std::pair{&run->encode_ns, &seg.encode_ns},
                          std::pair{&run->decode_ns, &seg.decode_ns}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  run->ok += seg.ok;
  run->ok_in_limit += seg.ok_in_limit;
  run->rejected += seg.rejected;
  run->deadline += seg.deadline;
  run->errors += seg.errors;
  run->wrong += seg.wrong;
  run->unanswered += seg.unanswered;
  run->transport_errors += seg.transport_errors;
  run->reply_bytes += seg.reply_bytes;
  run->replies += seg.replies;
  run->checked += seg.checked;
  run->wall_s += seg.wall_s;
  run->offered_qps += seg.offered_qps / kSegments;
}

}  // namespace

void RunServiceWorkload(const Args& args, bool overload, Report* report,
                        Tracer* tracer) {
  const DataSpec spec = ServiceSpec();
  const OverlapsOp op;
  const std::string socket_path =
      args.out_dir + "/svc-" + std::to_string(::getpid()) + ".sock";

  // --- Set-up, repeated: inputs, trees, server with the dataset ---------
  std::vector<double> setup_s, gen_ms, load_ms, build_ms, materialize_ms,
      start_ms;
  BufferPoolStats setup_pool;
  // Replaces *holder and *svc by a fresh dataset and a started server on
  // `path`, timed into the set-up series; false if the server won't start.
  auto set_up = [&](std::unique_ptr<Dataset>* holder, Service* svc,
                    std::vector<Rectangle>* windows, const std::string& path) {
    svc->server.reset();  // stops it, before its pool goes
    svc->pool.reset();
    holder->reset();
    const int64_t op_id = tracer->NewOperation();
    Tracer::Scope span(tracer, "setup", op_id);
    const int64_t start = NowNs();
    *holder = std::make_unique<Dataset>(
        BuildDataset(spec, SubSeed(args.seed, 20), tracer, op_id));
    Dataset& data = **holder;
    *windows = MakeWindows(SubSeed(args.seed, 21), kWindows, spec.world, 300.0,
                           600.0);
    const int64_t start_server = NowNs();
    {
      Tracer::Scope server_span(tracer, "server.start", op_id);
      svc->pool = std::make_unique<exec::ThreadPool>(kServiceWorkers);
      Server::Options options;
      options.socket_path = path;
      svc->server = std::make_unique<Server>(svc->pool.get(), options);
      svc->server->RegisterDataset(Freeze(*data.r_rtree, *data.r),
                                   Freeze(*data.s_rtree, *data.s));
      const Status started = svc->server->Start();
      report->Attempt(started.ok(), "server start: " + started.message());
      if (!started.ok()) return false;
    }
    start_ms.push_back(static_cast<double>(NowNs() - start_server) / 1e6);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    gen_ms.push_back(data.times.gen_ms);
    load_ms.push_back(data.times.load_ms);
    build_ms.push_back(data.times.build_ms);
    materialize_ms.push_back(data.times.materialize_ms);
    setup_pool = data.pool->stats();
    return true;
  };
  // The rest of the set-ups run between the measured segments (below), so
  // that their median, too, spans the whole run.
  std::unique_ptr<Dataset> data_holder;
  Service service;
  std::vector<Rectangle> windows;
  for (int rep = 0; rep < kSetupReps - kSegments * kSegmentSetups; ++rep) {
    if (!set_up(&data_holder, &service, &windows, socket_path)) return;
  }
  Dataset& data = *data_holder;
  const double setup_rss_mb = PeakRssMb();

  // --- Reference answers on the same FrozenTrees --------------------------
  SpatialJoinContext join_ctx;
  join_ctx.r_tree = data.r_frozen.get();
  join_ctx.s_tree = data.s_frozen.get();
  SpatialJoinContext select_ctx;
  select_ctx.s_tree = data.s_frozen.get();
  const JoinResult reference = ExecuteJoin(JoinStrategy::kTreeJoin, join_ctx, op);
  const Matches join_expected = Normalized(reference);
  const MatchDigest digest = Digest(reference);
  std::vector<Matches> select_expected;
  for (const Rectangle& w : windows) {
    select_expected.push_back(Normalized(ExecuteSelect(
        SelectStrategy::kTree, select_ctx, Value(w), kInvalidTupleId, op)));
  }
  data.pool->ResetStats();

  // --- Measured segments: in-process joins, then a slice of the load ------
  std::vector<double> tree_ms, par_ms, pbsm_ms, select_direct_us,
      join_direct_ms;
  const double qps = overload ? kOverloadQps : kSteadyQps;
  const double load_s = args.tiny ? std::min(args.seconds, 1.0) : args.seconds;
  const std::vector<Planned> plan = MakePlan(
      SubSeed(args.seed, 22), args.tiny ? qps / 4 : qps, load_s, 0);
  const int in_process_reps = args.tiny ? 2 * kSegments : kInProcessReps;
  LoadResult load;
  {
    exec::ThreadPool pool(kWorkers);
    SpatialJoinContext par_ctx = join_ctx;
    par_ctx.exec_pool = &pool;
    SpatialJoinContext pbsm_ctx;
    pbsm_ctx.r = data.r.get();
    pbsm_ctx.col_r = 1;
    pbsm_ctx.s = data.s.get();
    pbsm_ctx.col_s = 1;
    pbsm_ctx.exec_pool = &pool;
    auto timed = [&](const char* span_name, std::vector<double>* ms,
                     JoinStrategy strategy, const SpatialJoinContext& ctx) {
      JoinResult result;
      {
        Tracer::Scope span(tracer, span_name, tracer->NewOperation());
        const int64_t start = NowNs();
        result = ExecuteJoin(strategy, ctx, op);
        ms->push_back(static_cast<double>(NowNs() - start) / 1e6);
      }
      report->Attempt(Normalized(result) == join_expected,
                      std::string(span_name) + " differs from tree_join");
    };
    size_t w = 0;
    for (int seg = 0; seg < kSegments; ++seg) {
      // Set-ups of a spare dataset and server, on a socket of their own.
      {
        std::unique_ptr<Dataset> spare_data;
        Service spare;
        std::vector<Rectangle> spare_windows;
        for (int i = 0; i < kSegmentSetups; ++i) {
          if (!set_up(&spare_data, &spare, &spare_windows,
                      socket_path + ".spare")) {
            return;
          }
        }
      }
      // In process: the three strategies on the service's JOIN pair, the
      // gated tree join every round and the others every second round.
      for (int i = 0; i < in_process_reps / kSegments; ++i) {
        timed("core.execute_join.tree_join", &tree_ms, JoinStrategy::kTreeJoin,
              join_ctx);
        if (i % 2 == 1) continue;
        timed("core.execute_join.parallel_tree_join", &par_ms,
              JoinStrategy::kParallelTreeJoin, par_ctx);
        timed("core.execute_join.partitioned_join", &pbsm_ms,
              JoinStrategy::kPartitionedJoin, pbsm_ctx);
        if (!tracer->enabled()) continue;
        w = (w + 1) % windows.size();
        {
          Tracer::Scope span(tracer, "core.spatial_select",
                             tracer->NewOperation());
          const int64_t start = NowNs();
          const SelectResult sel =
              SpatialSelect(Value(windows[w]), *data.s_frozen, op);
          select_direct_us.push_back(static_cast<double>(NowNs() - start) /
                                     1e3);
          report->Attempt(
              sel.matching_tuples.size() == select_expected[w].size(),
              "SpatialSelect differs from ExecuteSelect");
        }
        {
          Tracer::Scope span(tracer, "core.tree_join", tracer->NewOperation());
          const int64_t start = NowNs();
          const JoinResult direct = TreeJoin(*data.r_frozen, *data.s_frozen, op);
          join_direct_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
          report->Attempt(Normalized(direct) == join_expected,
                          "TreeJoin differs from ExecuteJoin");
        }
      }
      // Open-loop load: this segment's slice of the schedule.
      std::vector<Planned> slice =
          PlanSegment(plan, seg, NowNs() + 20'000'000);
      if (slice.empty()) continue;
      Tracer::Scope span(tracer, "loadgen.run", tracer->NewOperation());
      Generator generator(&slice, windows, select_expected, join_expected,
                          overload, tracer, report);
      Append(&load, generator.Run(socket_path));
    }
  }
  std::string stats_json;
  {
    Result<std::unique_ptr<ServiceClient>> client =
        ServiceClient::Connect(socket_path);
    if (client.ok()) {
      Result<std::string> stats = client.value()->Stats();
      if (stats.ok()) stats_json = stats.value();
    }
    report->Attempt(!stats_json.empty(), "STATS request failed");
  }
  const QueryScheduler::Stats sched = service.server->scheduler_stats();
  service.server->Stop();

  // --- End-to-end metrics ---------------------------------------------------
  report->Set("setup_s", Median(setup_s));
  report->Set("peak_rss_mb", setup_rss_mb);
  report->Set("tree_join_ms", Median(tree_ms));
  report->Set("tree_join_par_ms", Median(par_ms));
  report->Set("pbsm_join_ms", Median(pbsm_ms));
  report->Set("select_p50_ms", Median(load.select_ms));
  report->Set("select_p99_ms", P99(load.select_ms));
  report->Set("join_p50_ms", Median(load.join_ms));
  report->Set("join_p99_ms", P99(load.join_ms));
  report->Set("goodput_qps", load.wall_s > 0.0
                                 ? static_cast<double>(load.ok_in_limit) /
                                       load.wall_s
                                 : 0.0);

  const char* name = overload ? "svc_overload" : "svc_steady";
  char line[512];
  std::snprintf(line, sizeof(line),
                "workload %s seed %llu: dataset %lld rectangles per side, "
                "%d SELECT windows; nproc %u, server workers %d (admission "
                "bound %d), %d connections, offered %.0f qps uniform for "
                "%.1f s (mix 50/50 SELECT/JOIN, assumed), latency limit "
                "%.1f ms%s",
                name, static_cast<unsigned long long>(args.seed),
                static_cast<long long>(spec.tuples), kWindows,
                std::thread::hardware_concurrency(), kServiceWorkers,
                service.server->max_inflight(), kConnections,
                load.offered_qps, load_s, kLimitNs / 1e6,
                overload ? " (also each request's deadline)" : "");
  report->Note(line);
  std::snprintf(line, sizeof(line),
                "check: workload=%s seed=%llu matches=%lld hash=%016llx",
                name, static_cast<unsigned long long>(args.seed),
                static_cast<long long>(digest.count),
                static_cast<unsigned long long>(digest.hash));
  report->Note(line);
  std::snprintf(line, sizeof(line),
                "replies: %lld ok (%lld within the limit, %lld compared with "
                "the in-process answers), %lld rejected, %lld deadline, "
                "%lld errors, %lld wrong, %lld unanswered",
                static_cast<long long>(load.ok),
                static_cast<long long>(load.ok_in_limit),
                static_cast<long long>(load.checked),
                static_cast<long long>(load.rejected),
                static_cast<long long>(load.deadline),
                static_cast<long long>(load.errors),
                static_cast<long long>(load.wrong),
                static_cast<long long>(load.unanswered));
  report->Note(line);
  std::snprintf(line, sizeof(line), "peak RSS %.1f MB after set-up, %.1f MB "
                "over the whole run", setup_rss_mb, PeakRssMb());
  report->Note(line);
  const double late_p99 = P99(load.late_ms);
  std::snprintf(line, sizeof(line),
                "generator: late p99 %.3f ms (bound %.1f ms: %s), "
                "SELECT n=%zu, JOIN n=%zu",
                late_p99, kLateBoundMs,
                late_p99 <= kLateBoundMs ? "valid" : "INVALID RUN",
                load.select_ms.size(), load.join_ms.size());
  report->Note(line);

  if (!tracer->enabled()) return;

  // --- Per-layer metrics (traced run) -------------------------------------
  report->Set("workload.gen_ms", Median(gen_ms));
  report->Set("storage.load_ms", Median(load_ms));
  report->Set("rtree.build_ms", Median(build_ms));
  report->Set("exec.materialize_ms", Median(materialize_ms));
  report->Set("server.start_ms", Median(start_ms));
  report->Set("storage.setup_hit_ratio", setup_pool.hit_rate());
  report->Set("storage.setup_accesses",
              static_cast<double>(setup_pool.hits + setup_pool.misses));
  const BufferPoolStats measured_pool = data.pool->stats();
  report->Set("storage.pool_hit_ratio", measured_pool.hit_rate());
  report->Set("storage.pool_accesses",
              static_cast<double>(measured_pool.hits + measured_pool.misses));
  report->Set("storage.relation_pages",
              static_cast<double>(data.relation_pages()));
  report->Set("storage.pool_frames", static_cast<double>(spec.pool_frames));
  report->Set("core.select_direct_us", Median(select_direct_us));
  report->Set("core.join_direct_ms", Median(join_direct_ms));
  report->Set("core.theta_upper_tests",
              static_cast<double>(reference.theta_upper_tests));
  report->Set("core.theta_tests", static_cast<double>(reference.theta_tests));
  report->Set("core.qual_pairs",
              static_cast<double>(reference.qual_pairs_examined));
  report->Set("core.nodes_accessed",
              static_cast<double>(reference.nodes_accessed));
  report->Set("server.encode_request_ns", Median(load.encode_ns));
  report->Set("server.decode_reply_ns", Median(load.decode_ns));
  report->Set("server.reply_bytes",
              load.replies > 0 ? static_cast<double>(load.reply_bytes) /
                                     static_cast<double>(load.replies)
                               : 0.0);
  report->Set("server.query_wall_p50_ms",
              StatsNumber(stats_json, "latency", "p50_ns") / 1e6);
  report->Set("server.queue_wait_p50_ms",
              StatsNumber(stats_json, "queue_wait", "p50_ns") / 1e6);
  report->Set("server.queue_wait_p99_ms",
              StatsNumber(stats_json, "queue_wait", "p99_ns") / 1e6);
  report->Set("server.stopped", StatsNumber(stats_json, "queries", "stopped"));
  report->Set("server.admitted", static_cast<double>(sched.admitted));
  report->Set("server.rejected", static_cast<double>(sched.rejected));
  report->Set("server.peak_inflight", static_cast<double>(sched.peak_inflight));
  report->Set("loadgen.late_p99_ms", late_p99);
  report->Set("loadgen.offered_qps", load.offered_qps);
}

}  // namespace perfbench
