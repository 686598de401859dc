#ifndef SPATIALJOIN_SERVER_SESSION_H_
#define SPATIALJOIN_SERVER_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/cancel.h"
#include "exec/thread_pool.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"
#include "server/scheduler.h"
#include "server/telemetry.h"

namespace spatialjoin {
namespace server {

/// One client connection (DESIGN.md §12).
///
/// The server's I/O loop feeds the session what its socket has, and the
/// session handles every complete frame inline: pings, cancels and STATS
/// are answered at once, queries are decoded, admitted through the
/// QueryScheduler, and executed as fire-and-forget pool tasks. Replies
/// may therefore interleave in completion order — clients match them by
/// request id. Every reply joins the session's output queue; only the
/// loop sends.
///
/// Threading & lifetime: the loop owns the socket and the decoder; every
/// in-flight query closure holds a shared_ptr, and a reply finished after
/// Close() is dropped. `mu_` guards the in-flight map and the output
/// queue; it never nests with the scheduler's or the pool's mutexes
/// (lock order, DESIGN.md §12), and no socket call runs under it.
class Session : public std::enable_shared_from_this<Session> {
 public:
  struct Context {
    const DatasetRegistry* registry = nullptr;
    QueryScheduler* scheduler = nullptr;
    exec::ThreadPool* pool = nullptr;  ///< STATS' `pool` section only
    /// Applied when a request carries deadline_ns == 0 (0 = no deadline).
    int64_t default_deadline_ns = 0;
    /// Called on the pool worker after a query queued its reply: hands
    /// the session (by id) to the loop, which sends it.
    std::function<void(int)> wake;
  };

  /// While more reply bytes than this are queued, the loop neither reads
  /// nor handles buffered frames: any one frame fits, and a client that
  /// stops reading holds at most this plus its in-flight queries' replies.
  static constexpr size_t kMaxQueuedBytes =
      kFrameHeaderBytes + kMaxPayloadBytes;

  /// Takes ownership of `fd`, a non-blocking socket (Close() closes it).
  /// `id` names the session in events and telemetry.
  Session(int fd, int id, const Context& context);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- Loop thread only ------------------------------------------------

  /// Reads once into `buf` when it is non-null (the socket is readable),
  /// sends queued replies, handles buffered frames while at most
  /// kMaxQueuedBytes are queued, and sends again. False when the session
  /// must be reaped: EOF, a socket error, or a poisoned stream (its id-0
  /// error reply sent first, as far as the socket takes it).
  bool Serve(char* buf, size_t size);

  /// Reply bytes queued and not yet sent.
  size_t QueuedBytes();

  /// Drops queued replies and later ones, cancels the in-flight queries
  /// (their results are undeliverable) and closes the socket.
  void Close();

  int fd() const { return fd_; }

 private:
  void HandleFrame(const Frame& frame);
  /// A decoded SELECT or JOIN: checks that the wire serves its strategy
  /// and that its dataset and operator exist, then admits it.
  template <typename Request>
  void HandleQuery(uint64_t request_id, const Result<Request>& decoded);
  void HandleCancel(uint64_t request_id, std::string_view payload);
  void HandleStats(uint64_t request_id);

  /// Registers a pending query and admits it; on any failure the error
  /// reply has already been queued. `record` holds the query's labels;
  /// the completion fills in the rest. The deadline (the request's, else
  /// the server default) runs from here. `run` is the strategy-specific
  /// body: it completes a context that carries the token, remaining
  /// deadline and activity detail (no pool: the query posts nothing), and
  /// executes the query. The completion path is shared — which is also
  /// where attribution charges are collected and the QueryRecord is
  /// retained by ServiceTelemetry.
  void AdmitQuery(QueryRecord record, int64_t deadline_ns,
                  std::function<JoinResult(SpatialJoinContext&)> run);

  /// Appends a reply frame to the output queue (any thread); false once
  /// the session is closed, when the reply is dropped.
  bool Queue(std::string frame);

  /// Sends queued replies until the queue is empty or the socket is
  /// full (loop thread); false on a send error.
  bool Flush();

  /// Removes a finished/failed query from the in-flight map.
  void ForgetQuery(uint64_t request_id);

  const int fd_;
  const int id_;
  const Context context_;

  // Loop thread only.
  FrameDecoder decoder_;
  std::string sending_;  // the frame being sent
  size_t sent_ = 0;      // its bytes already sent

  Mutex mu_;
  /// In-flight queries' cancel tokens by request id.
  std::unordered_map<uint64_t, std::shared_ptr<exec::CancelToken>> inflight_
      SJ_GUARDED_BY(mu_);
  bool closed_ SJ_GUARDED_BY(mu_) = false;
  /// Reply frames waiting for the loop, in completion order.
  std::deque<std::string> outbox_ SJ_GUARDED_BY(mu_);
  size_t outbox_bytes_ SJ_GUARDED_BY(mu_) = 0;
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_SESSION_H_
