#include "server/session.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "core/spatial_join.h"
#include "obs/attribution.h"
#include "obs/event_log.h"
#include "obs/timer.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace spatialjoin {
namespace server {

namespace {

/// The wire serves the paper's strategy II over FrozenTree snapshots, run
/// whole on the pool worker that takes the query. The others need live
/// relations, a join index, the (single-threaded) storage layer or a pool
/// of their own, none of which a served query holds.
bool WireServes(SelectStrategy s) { return s == SelectStrategy::kTree; }
bool WireServes(JoinStrategy s) { return s == JoinStrategy::kTreeJoin; }

const char* StrategyName(SelectStrategy s) { return SelectStrategyName(s); }
const char* StrategyName(JoinStrategy s) { return JoinStrategyName(s); }

JoinResult RunRequest(const SelectRequest& req, const Dataset& dataset,
                      const ThetaOperator& op, SpatialJoinContext& ctx) {
  ctx.s_tree = &dataset.s_tree;
  return ExecuteSelect(req.strategy, ctx, Value(req.selector),
                       kInvalidTupleId, op);
}

JoinResult RunRequest(const JoinRequest& req, const Dataset& dataset,
                      const ThetaOperator& op, SpatialJoinContext& ctx) {
  ctx.r_tree = &dataset.r_tree;
  ctx.s_tree = &dataset.s_tree;
  return ExecuteJoin(req.strategy, ctx, op);
}

}  // namespace

Session::Session(int fd, int id, const Context& context)
    : fd_(fd), id_(id), context_(context) {
  SJ_CHECK_GE(fd, 0);
  SJ_CHECK(context.registry != nullptr && context.scheduler != nullptr &&
           context.pool != nullptr && context.wake != nullptr);
  ServiceTelemetry::Global().OnSessionOpened();
  SJ_EVENT(kMessage, kInfo, "session%d opened", id_);
}

bool Session::Serve(char* buf, size_t size) {
  if (buf != nullptr) {
    const ssize_t n = ::recv(fd_, buf, size, 0);
    if (n == 0) return false;  // EOF: the client is done
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    // Feed's return and poisoned() agree; frames already complete in the
    // buffer ahead of any later corruption still drain below.
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)))
        .IgnoreError();  // surfaced via poisoned() after the drain
  }
  if (!Flush()) return false;
  Frame frame;
  while (QueuedBytes() <= kMaxQueuedBytes) {
    if (!decoder_.Next(&frame)) break;
    HandleFrame(frame);
  }
  if (decoder_.poisoned()) {
    // The stream is garbage, so no request id is attributable; id 0 by
    // convention marks a connection-level protocol error.
    Queue(EncodeErrorReply(0, decoder_.error()));
    ServiceTelemetry::Global().OnProtocolError();
    SJ_EVENT(kMessage, kWarn, "session%d dropped: %s", id_,
             decoder_.error().message().c_str());
    Flush();
    return false;
  }
  return Flush();
}

size_t Session::QueuedBytes() {
  MutexLock lock(mu_);
  return outbox_bytes_ + (sending_.size() - sent_);
}

void Session::Close() {
  // Disconnection cancels this session's outstanding queries: their
  // results are undeliverable, so finishing the traversals is pure waste.
  decltype(inflight_) orphans;
  {
    MutexLock lock(mu_);
    closed_ = true;
    outbox_.clear();
    orphans.swap(inflight_);
  }
  for (auto& [rid, token] : orphans) {
    SJ_BOUNDED_WORK;  // in-flight set capped by admission control
    token->Cancel();
  }
  ::close(fd_);
  ServiceTelemetry::Global().OnSessionClosed();
  SJ_EVENT(kMessage, kInfo, "session%d closed (%zu queries orphaned)", id_,
           orphans.size());
}

void Session::HandleFrame(const Frame& frame) {
  if (!IsRequestType(frame.type)) {
    Queue(EncodeErrorReply(
        frame.request_id,
        Status::InvalidArgument("unexpected message type from client")));
    return;
  }
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kPing:
      Queue(EncodePong(frame.request_id));
      return;
    case MessageType::kSelect:
      HandleQuery(frame.request_id, DecodeSelectRequest(frame.payload));
      return;
    case MessageType::kJoin:
      HandleQuery(frame.request_id, DecodeJoinRequest(frame.payload));
      return;
    case MessageType::kCancel:
      HandleCancel(frame.request_id, frame.payload);
      return;
    case MessageType::kStats:
      if (!frame.payload.empty()) {
        Queue(EncodeErrorReply(
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

template <typename Request>
void Session::HandleQuery(uint64_t request_id,
                          const Result<Request>& decoded) {
  if (!decoded.ok()) {
    Queue(EncodeErrorReply(request_id, decoded.status()));
    return;
  }
  const Request& req = decoded.value();
  if (!WireServes(req.strategy)) {
    Queue(EncodeErrorReply(
        request_id,
        Status::InvalidArgument("strategy not served over the wire")));
    return;
  }
  const Dataset* dataset = context_.registry->Find(req.dataset_id);
  if (dataset == nullptr) {
    Queue(
        EncodeErrorReply(request_id, Status::NotFound("unknown dataset id")));
    return;
  }
  Result<std::unique_ptr<ThetaOperator>> op =
      MakeWireOperator(req.op_code, req.op_param);
  if (!op.ok()) {
    Queue(EncodeErrorReply(request_id, op.status()));
    return;
  }

  AdmitQuery({.request_id = request_id, .session_id = id_,
              .dataset_id = req.dataset_id,
              .is_join = std::is_same_v<Request, JoinRequest>,
              .strategy = StrategyName(req.strategy)},
             req.deadline_ns,
             [req, dataset,
              op = std::shared_ptr<ThetaOperator>(std::move(op).value())](
                 SpatialJoinContext& ctx) {
               return RunRequest(req, *dataset, *op, ctx);
             });
}

void Session::HandleCancel(uint64_t request_id, std::string_view payload) {
  Result<CancelRequest> decoded = DecodeCancelRequest(payload);
  if (!decoded.ok()) {
    Queue(EncodeErrorReply(request_id, decoded.status()));
    return;
  }
  std::shared_ptr<exec::CancelToken> token;
  {
    MutexLock lock(mu_);
    auto it = inflight_.find(decoded.value().target_request_id);
    if (it != inflight_.end()) token = it->second;
  }
  // Cancelling an unknown/already-finished id is a no-op by design — the
  // cancel raced the completion, and the client sees the (valid) result
  // it already got. The ack is unconditional either way.
  if (token != nullptr) {
    token->Cancel();
    ServiceTelemetry::Global().OnCancelRequested();
  }
  Queue(EncodePong(request_id));
}

void Session::HandleStats(uint64_t request_id) {
  // Answered inline on the loop, bypassing admission: STATS is
  // an operator's window into the server, and it must keep working when
  // the scheduler is saturated and rejecting queries.
  std::ostringstream os;
  ServiceTelemetry::Global().WriteStatsJson(
      os, context_.scheduler->stats(), context_.scheduler->max_inflight(),
      context_.pool->stats());
  Queue(EncodeStatsReply(request_id, os.str()));
}

void Session::AdmitQuery(QueryRecord record, int64_t deadline_ns,
                         std::function<JoinResult(SpatialJoinContext&)> run) {
  const uint64_t request_id = record.request_id;
  // The deadline runs from decode, so time spent queued counts against it.
  const int64_t admit_ns = MonotonicNowNs();
  const int64_t budget_ns =
      deadline_ns > 0 ? deadline_ns : context_.default_deadline_ns;
  const int64_t deadline_at_ns = budget_ns > 0 ? admit_ns + budget_ns : 0;
  auto token = std::make_shared<exec::CancelToken>();
  bool inserted;
  {
    MutexLock lock(mu_);
    // Request ids identify in-flight queries (kCancel targets them), so a
    // duplicate must be refused before it can alias an existing token.
    inserted = inflight_.emplace(request_id, token).second;
  }
  if (!inserted) {
    Queue(EncodeErrorReply(
        request_id,
        Status::InvalidArgument("duplicate in-flight request id")));
    return;
  }

  Status admitted = context_.scheduler->Submit(
      [self = shared_from_this(), request_id, record, token, deadline_at_ns,
       admit_ns, run = std::move(run)]() mutable {
        // ExecuteJoin/ExecuteSelect open the query's one activity (with
        // this detail and the deadline) and span, and run it under this
        // sink: every thread working for it charges `charges`.
        char detail[48];
        std::snprintf(detail, sizeof(detail), "sess%d req%llu", self->id_,
                      static_cast<unsigned long long>(request_id));
        SpatialJoinContext ctx;
        ctx.cancel = token.get();
        ctx.activity_detail = detail;
        attribution::QueryCharges charges;
        const int64_t start_ns = MonotonicNowNs();
        // A query whose deadline passed while it was queued does not run.
        // Otherwise it gets what remains, which is positive: ArmDeadline
        // reads a budget <= 0 as no deadline at all.
        const bool expired = deadline_at_ns != 0 && start_ns >= deadline_at_ns;
        JoinResult result;
        if (!expired) {
          ctx.deadline_budget_ns =
              deadline_at_ns == 0 ? 0 : deadline_at_ns - start_ns;
          attribution::QueryChargeScope scope(&charges);
          result = run(ctx);
        }
        const int64_t end_ns = MonotonicNowNs();
        const Status status =
            expired ? Status::DeadlineExceeded("query deadline exceeded")
                    : token->ToStatus();
        self->ForgetQuery(request_id);

        record.end_ts_ns = end_ns;
        record.wall_ns = end_ns - admit_ns;
        record.charges = charges.Snapshot();
        record.queue_wait_ns = start_ns - admit_ns;
        record.pairs_examined = result.theta_upper_tests;
        record.theta_tests = result.theta_tests;
        record.qual_pairs = result.qual_pairs_examined;
        record.nodes_accessed = result.nodes_accessed;
        record.matches = static_cast<int64_t>(result.matches.size());

        // The worker encodes the reply; the loop sends it.
        std::string reply;
        if (!status.ok()) {
          record.outcome = status.code() == StatusCode::kCancelled
                               ? QueryOutcome::kCancelled
                               : QueryOutcome::kDeadline;
          reply = EncodeErrorReply(request_id, status);
        } else if (result.matches.size() > kMaxResultPairs) {
          record.outcome = QueryOutcome::kOversized;
          reply = EncodeErrorReply(
              request_id, Status::ResourceExhausted(
                              "result exceeds the frame's pair capacity"));
        } else {
          reply = EncodeResultReply(request_id, result);
        }
        ServiceTelemetry::Global().RecordQuery(record);
        if (self->Queue(std::move(reply))) self->context_.wake(self->id_);
      });
  if (!admitted.ok()) {
    // Backpressure: undo the registration and tell the client now —
    // nothing was posted, so this rejection costs one reply frame.
    ForgetQuery(request_id);
    Queue(EncodeErrorReply(request_id, admitted));
  }
}

bool Session::Queue(std::string frame) {
  MutexLock lock(mu_);
  if (closed_) return false;
  outbox_bytes_ += frame.size();
  outbox_.push_back(std::move(frame));
  return true;
}

bool Session::Flush() {
  while (true) {
    SJ_BOUNDED_WORK;  // ends once the queue is empty or the socket full
    if (sent_ == sending_.size()) {
      MutexLock lock(mu_);
      if (outbox_.empty()) {
        std::string().swap(sending_);  // an idle session holds no buffer
        sent_ = 0;
        return true;
      }
      sending_ = std::move(outbox_.front());
      outbox_.pop_front();
      outbox_bytes_ -= sending_.size();
      sent_ = 0;
    }
    // MSG_NOSIGNAL: a vanished client must surface as EPIPE here, not as
    // a process-wide SIGPIPE (the engine installs no handler for it).
    const ssize_t n = ::send(fd_, sending_.data() + sent_,
                             sending_.size() - sent_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      ServiceTelemetry::Global().OnWriteFailure();
      return false;
    }
    sent_ += static_cast<size_t>(n);
  }
}

void Session::ForgetQuery(uint64_t request_id) {
  MutexLock lock(mu_);
  inflight_.erase(request_id);
}

}  // namespace server
}  // namespace spatialjoin
