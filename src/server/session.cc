#include "server/session.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/spatial_join.h"
#include "obs/attribution.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/timer.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace spatialjoin {
namespace server {

namespace {

/// The wire exposes only the strategies that are safe to run many-at-once
/// over FrozenTree snapshots. The others need live relations, a join
/// index, or the (single-threaded) storage layer, none of which the
/// service holds.
bool WireSupportsSelect(SelectStrategy s) {
  return s == SelectStrategy::kTree;
}

bool WireSupportsJoin(JoinStrategy s) {
  return s == JoinStrategy::kTreeJoin ||
         s == JoinStrategy::kParallelTreeJoin;
}

}  // namespace

Session::Session(int fd, int id, const Context& context)
    : fd_(fd), id_(id), context_(context) {
  SJ_CHECK_GE(fd, 0);
  SJ_CHECK(context.registry != nullptr && context.scheduler != nullptr &&
           context.pool != nullptr);
}

Session::~Session() {
  // The last owner (reader thread or final query closure) closes the fd,
  // so the descriptor can never be recycled under an in-flight reply.
  ::close(fd_);
}

void Session::ServeLoop() {
  char label[32];
  std::snprintf(label, sizeof(label), "server.sess%d", id_);
  Tracing::SetThreadName(label);
  ActivityScope activity("server.session", "reader");
  activity.SetDetail(label);
  ServiceTelemetry::Global().OnSessionOpened();
  SJ_EVENT(kMessage, kInfo, "session%d opened", id_);

  FrameDecoder decoder;
  char buf[1 << 16];
  while (true) {
    // A session blocked in recv() is idle, not stalled — the watchdog
    // only minds the handling window between Beat() and the next recv.
    activity.SetIdle(true);
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) break;  // EOF (client closed or Shutdown())
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    activity.Beat();
    // Feed's return and poisoned() agree; frames already complete in the
    // buffer ahead of any later corruption still drain below.
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)))
        .IgnoreError();  // surfaced via poisoned() after the drain
    Frame frame;
    while (decoder.Next(&frame)) HandleFrame(frame);
    if (decoder.poisoned()) {
      // The stream is garbage, so no request id is attributable; id 0 by
      // convention marks a connection-level protocol error.
      SendFrame(EncodeErrorReply(0, decoder.error()));
      ServiceTelemetry::Global().OnProtocolError();
      SJ_EVENT(kMessage, kWarn, "session%d dropped: %s", id_,
               decoder.error().message().c_str());
      break;
    }
  }

  // Disconnection cancels this session's outstanding queries: their
  // results are undeliverable, so finishing the traversals is pure waste.
  std::vector<std::shared_ptr<exec::CancelToken>> orphans;
  {
    MutexLock lock(mu_);
    orphans.reserve(inflight_.size());
    for (auto& [rid, pending] : inflight_) {
      SJ_BOUNDED_WORK;  // in-flight set capped by admission control
      orphans.push_back(pending.token);
    }
  }
  for (auto& token : orphans) {
    SJ_BOUNDED_WORK;  // in-flight set capped by admission control
    token->Cancel();
  }
  // Tell the peer the conversation is over (EOF on its recv). The fd
  // itself stays open until the last in-flight reply closure releases its
  // shared_ptr — shutdown is safe to race with those sends: they fail
  // with EPIPE and mark write_failed_.
  ::shutdown(fd_, SHUT_RDWR);
  ServiceTelemetry::Global().OnSessionClosed();
  SJ_EVENT(kMessage, kInfo, "session%d closed (%zu queries orphaned)", id_,
           orphans.size());
}

void Session::Shutdown() {
  // SHUT_RDWR, not close: the fd stays valid (and owned) until the last
  // shared_ptr drops, while the reader's recv unblocks with 0.
  ::shutdown(fd_, SHUT_RDWR);
}

void Session::HandleFrame(const Frame& frame) {
  if (!IsRequestType(frame.type)) {
    SendFrame(EncodeErrorReply(
        frame.request_id,
        Status::InvalidArgument("unexpected message type from client")));
    return;
  }
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kPing:
      SendFrame(EncodePong(frame.request_id));
      return;
    case MessageType::kSelect:
      HandleSelect(frame.request_id, frame.payload);
      return;
    case MessageType::kJoin:
      HandleJoin(frame.request_id, frame.payload);
      return;
    case MessageType::kCancel:
      HandleCancel(frame.request_id, frame.payload);
      return;
    case MessageType::kStats:
      if (!frame.payload.empty()) {
        SendFrame(EncodeErrorReply(
            frame.request_id,
            Status::InvalidArgument("STATS carries a payload")));
        return;
      }
      HandleStats(frame.request_id);
      return;
    default:
      return;  // unreachable: IsRequestType filtered above
  }
}

void Session::HandleSelect(uint64_t request_id, std::string_view payload) {
  Result<SelectRequest> decoded = DecodeSelectRequest(payload);
  if (!decoded.ok()) {
    SendFrame(EncodeErrorReply(request_id, decoded.status()));
    return;
  }
  const SelectRequest req = decoded.value();
  if (!WireSupportsSelect(req.strategy)) {
    SendFrame(EncodeErrorReply(
        request_id,
        Status::InvalidArgument("select strategy not served over the wire")));
    return;
  }
  const Dataset* dataset = context_.registry->Find(req.dataset_id);
  if (dataset == nullptr) {
    SendFrame(
        EncodeErrorReply(request_id, Status::NotFound("unknown dataset id")));
    return;
  }
  Result<std::unique_ptr<ThetaOperator>> op =
      MakeWireOperator(req.op_code, req.op_param);
  if (!op.ok()) {
    SendFrame(EncodeErrorReply(request_id, op.status()));
    return;
  }

  const int64_t deadline_ns = req.deadline_ns > 0
                                  ? req.deadline_ns
                                  : context_.default_deadline_ns;
  auto token = std::make_shared<exec::CancelToken>();
  const QueryInfo info{req.dataset_id, /*is_join=*/false,
                       SelectStrategyName(req.strategy)};
  AdmitQuery(request_id, info, token, deadline_ns,
             [req, dataset,
              op = std::shared_ptr<ThetaOperator>(std::move(op).value())](
                 SpatialJoinContext& ctx) {
               ctx.s_tree = &dataset->s_tree;
               return ExecuteSelect(req.strategy, ctx, Value(req.selector),
                                    kInvalidTupleId, *op);
             });
}

void Session::HandleJoin(uint64_t request_id, std::string_view payload) {
  Result<JoinRequest> decoded = DecodeJoinRequest(payload);
  if (!decoded.ok()) {
    SendFrame(EncodeErrorReply(request_id, decoded.status()));
    return;
  }
  const JoinRequest req = decoded.value();
  if (!WireSupportsJoin(req.strategy)) {
    SendFrame(EncodeErrorReply(
        request_id,
        Status::InvalidArgument("join strategy not served over the wire")));
    return;
  }
  const Dataset* dataset = context_.registry->Find(req.dataset_id);
  if (dataset == nullptr) {
    SendFrame(
        EncodeErrorReply(request_id, Status::NotFound("unknown dataset id")));
    return;
  }
  Result<std::unique_ptr<ThetaOperator>> op =
      MakeWireOperator(req.op_code, req.op_param);
  if (!op.ok()) {
    SendFrame(EncodeErrorReply(request_id, op.status()));
    return;
  }

  const int64_t deadline_ns = req.deadline_ns > 0
                                  ? req.deadline_ns
                                  : context_.default_deadline_ns;
  auto token = std::make_shared<exec::CancelToken>();
  const QueryInfo info{req.dataset_id, /*is_join=*/true,
                       JoinStrategyName(req.strategy)};
  AdmitQuery(request_id, info, token, deadline_ns,
             [req, dataset,
              op = std::shared_ptr<ThetaOperator>(std::move(op).value())](
                 SpatialJoinContext& ctx) {
               ctx.r_tree = &dataset->r_tree;
               ctx.s_tree = &dataset->s_tree;
               return ExecuteJoin(req.strategy, ctx, *op);
             });
}

void Session::HandleCancel(uint64_t request_id, std::string_view payload) {
  Result<CancelRequest> decoded = DecodeCancelRequest(payload);
  if (!decoded.ok()) {
    SendFrame(EncodeErrorReply(request_id, decoded.status()));
    return;
  }
  std::shared_ptr<exec::CancelToken> token;
  {
    MutexLock lock(mu_);
    auto it = inflight_.find(decoded.value().target_request_id);
    if (it != inflight_.end()) token = it->second.token;
  }
  // Cancelling an unknown/already-finished id is a no-op by design — the
  // cancel raced the completion, and the client sees the (valid) result
  // it already got. The ack is unconditional either way.
  if (token != nullptr) {
    token->Cancel();
    ServiceTelemetry::Global().OnCancelRequested();
  }
  SendFrame(EncodePong(request_id));
}

void Session::HandleStats(uint64_t request_id) {
  // Answered inline on the reader thread, bypassing admission: STATS is
  // an operator's window into the server, and it must keep working when
  // the scheduler is saturated and rejecting queries.
  std::ostringstream os;
  ServiceTelemetry::Global().WriteStatsJson(
      os, context_.scheduler->stats(), context_.scheduler->max_inflight(),
      context_.pool->stats());
  SendFrame(EncodeStatsReply(request_id, os.str()));
}

void Session::AdmitQuery(uint64_t request_id, const QueryInfo& info,
                         std::shared_ptr<exec::CancelToken> token,
                         int64_t deadline_ns,
                         std::function<JoinResult(SpatialJoinContext&)> run) {
  bool inserted;
  {
    MutexLock lock(mu_);
    // Request ids identify in-flight queries (kCancel targets them), so a
    // duplicate must be refused before it can alias an existing token.
    inserted = inflight_.emplace(request_id, PendingQuery{token}).second;
  }
  // mu_ is released before SendFrame: mu_ and write_mu_ are never nested.
  if (!inserted) {
    SendFrame(EncodeErrorReply(
        request_id,
        Status::InvalidArgument("duplicate in-flight request id")));
    return;
  }

  const int64_t admit_ns = MonotonicNowNs();
  Status admitted = context_.scheduler->Submit(
      [self = shared_from_this(), request_id, info, token, deadline_ns,
       admit_ns, run = std::move(run)] {
        // ExecuteJoin/ExecuteSelect open the query's one activity (with
        // this detail and the deadline) and span, and run it under this
        // sink: every thread working for it charges `charges`.
        char detail[48];
        std::snprintf(detail, sizeof(detail), "sess%d req%llu", self->id_,
                      static_cast<unsigned long long>(request_id));
        SpatialJoinContext ctx;
        ctx.exec_pool = self->context_.pool;
        ctx.cancel = token.get();
        ctx.deadline_budget_ns = deadline_ns;
        ctx.activity_detail = detail;
        attribution::QueryCharges charges;
        const int64_t start_ns = MonotonicNowNs();
        JoinResult result;
        {
          attribution::QueryChargeScope scope(&charges);
          result = run(ctx);
        }
        const int64_t end_ns = MonotonicNowNs();
        const Status status = token->ToStatus();
        self->ForgetQuery(request_id);

        QueryRecord record;
        record.request_id = request_id;
        record.session_id = self->id_;
        record.dataset_id = info.dataset_id;
        record.is_join = info.is_join;
        record.strategy = info.strategy;
        record.end_ts_ns = end_ns;
        record.wall_ns = end_ns - admit_ns;
        record.charges = charges.Snapshot();
        // Admission wait (admit → body start) plus the waits of every
        // pool task the query fanned out.
        record.queue_wait_ns =
            (start_ns - admit_ns) + record.charges.queue_wait_ns;
        record.pairs_examined = result.theta_upper_tests;
        record.theta_tests = result.theta_tests;
        record.qual_pairs = result.qual_pairs_examined;
        record.nodes_accessed = result.nodes_accessed;
        record.matches = static_cast<int64_t>(result.matches.size());
        record.residual =
            (result.theta_tests == 0 && result.theta_upper_tests == 0)
                ? 1.0
                : static_cast<double>(result.theta_tests) /
                      static_cast<double>(
                          std::max<int64_t>(1, result.theta_upper_tests));

        ServiceTelemetry& telemetry = ServiceTelemetry::Global();
        if (!status.ok()) {
          record.outcome = status.code() == StatusCode::kCancelled
                               ? QueryOutcome::kCancelled
                               : QueryOutcome::kDeadline;
          telemetry.RecordQuery(record);
          self->SendFrame(EncodeErrorReply(request_id, status));
          return;
        }
        if (result.matches.size() > kMaxResultPairs) {
          record.outcome = QueryOutcome::kOversized;
          telemetry.RecordQuery(record);
          self->SendFrame(EncodeErrorReply(
              request_id, Status::ResourceExhausted(
                              "result exceeds the frame's pair capacity")));
          return;
        }
        record.outcome = QueryOutcome::kOk;
        telemetry.RecordQuery(record);
        self->SendFrame(EncodeResultReply(request_id, result));
      });
  if (!admitted.ok()) {
    // Backpressure: undo the registration and tell the client now —
    // nothing was posted, so this rejection costs one reply frame.
    ForgetQuery(request_id);
    SendFrame(EncodeErrorReply(request_id, admitted));
  }
}

void Session::SendFrame(const std::string& frame) {
  {
    MutexLock lock(write_mu_);
    if (write_failed_) return;
    pending_writes_.push_back(frame);
    if (writer_active_) return;  // the active drainer picks it up
    writer_active_ = true;
  }
  DrainWrites();
}

void Session::DrainWrites() {
  std::string frame;
  while (true) {
    SJ_BOUNDED_WORK;  // drains the pending queue (one frame per admitted
                      // reply) and exits when it is empty
    {
      MutexLock lock(write_mu_);
      if (write_failed_ || pending_writes_.empty()) {
        writer_active_ = false;
        return;
      }
      frame = std::move(pending_writes_.front());
      pending_writes_.pop_front();
    }
    // The send itself runs unlocked: the peer drains its socket at its
    // own pace, and a slow client must not hold up the completion paths
    // queueing behind write_mu_.
    size_t sent = 0;
    while (sent < frame.size()) {
      SJ_BOUNDED_WORK;  // one frame's bytes (<= header + kMaxPayloadBytes)
      // MSG_NOSIGNAL: a vanished client must surface as EPIPE here, not
      // as a process-wide SIGPIPE (the engine installs no handler for
      // it).
      const ssize_t n = ::send(fd_, frame.data() + sent,
                               frame.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        {
          MutexLock lock(write_mu_);
          write_failed_ = true;
          writer_active_ = false;
          pending_writes_.clear();  // nobody will ever send these
        }
        ServiceTelemetry::Global().OnWriteFailure();
        return;
      }
      sent += static_cast<size_t>(n);
    }
  }
}

void Session::ForgetQuery(uint64_t request_id) {
  MutexLock lock(mu_);
  inflight_.erase(request_id);
}

}  // namespace server
}  // namespace spatialjoin
