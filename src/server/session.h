#ifndef SPATIALJOIN_SERVER_SESSION_H_
#define SPATIALJOIN_SERVER_SESSION_H_

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
/// A dedicated reader thread (ServeLoop, spawned by the server's accept
/// loop) parses frames off the socket and handles them inline: pings and
/// cancels are answered immediately, queries are decoded, admitted
/// through the QueryScheduler, and executed as fire-and-forget pool
/// tasks. Replies may therefore interleave in completion order — clients
/// match them by request id.
///
/// Threading & lifetime: the session is shared between its reader thread
/// and every in-flight query closure (each holds a shared_ptr), so the
/// object — and the socket fd it owns — outlives whichever finishes
/// last. Two mutexes, never held together and never nested with the
/// scheduler's or the pool's (lock order, DESIGN.md §12): `mu_` guards
/// the in-flight request map, `write_mu_` serializes reply frames onto
/// the socket so concurrent query completions cannot interleave bytes.
class Session : public std::enable_shared_from_this<Session> {
 public:
  struct Context {
    const DatasetRegistry* registry = nullptr;
    QueryScheduler* scheduler = nullptr;
    exec::ThreadPool* pool = nullptr;
    /// Applied when a request carries deadline_ns == 0 (0 = no deadline).
    int64_t default_deadline_ns = 0;
  };

  /// Takes ownership of `fd` (closed on destruction). `id` names the
  /// session in events and trace tracks.
  Session(int fd, int id, const Context& context);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Reader loop: runs until EOF, a socket error, or a poisoned frame
  /// stream. On exit, cancels every query the session still has in
  /// flight (their completions still run and send into the dead socket,
  /// which fails benignly).
  void ServeLoop();

  /// Half-closes the socket from another thread (server shutdown): the
  /// reader's blocking recv returns 0 and ServeLoop exits.
  void Shutdown();

  int id() const { return id_; }

 private:
  struct PendingQuery {
    std::shared_ptr<exec::CancelToken> token;
  };

  /// What the completion path needs to label a QueryRecord; filled by
  /// the decode handlers (strategy names are static storage).
  struct QueryInfo {
    uint32_t dataset_id = 0;
    bool is_join = false;
    const char* strategy = "";
  };

  void HandleFrame(const Frame& frame);
  void HandleSelect(uint64_t request_id, std::string_view payload);
  void HandleJoin(uint64_t request_id, std::string_view payload);
  void HandleCancel(uint64_t request_id, std::string_view payload);
  void HandleStats(uint64_t request_id);

  /// Registers a pending query and admits it; on any failure the error
  /// reply has already been sent. `run` is the strategy-specific body:
  /// it completes a context that carries the pool, token, deadline and
  /// activity detail, and executes the query. The completion path is
  /// shared — which is also where attribution charges are collected and
  /// the query's QueryRecord is retained by ServiceTelemetry.
  void AdmitQuery(uint64_t request_id, const QueryInfo& info,
                  std::shared_ptr<exec::CancelToken> token,
                  int64_t deadline_ns,
                  std::function<JoinResult(SpatialJoinContext&)> run);

  /// Serialized, complete write of one reply frame; on the first failure
  /// the session goes write-dead and later replies are dropped (the
  /// client is gone — queries still finish for their side effects).
  ///
  /// write_mu_ is never held across ::send (the client controls how
  /// long a send blocks, and a query completion stuck behind it would
  /// invert the scheduler's deadline priorities): the frame is queued
  /// under the lock and exactly one caller at a time drains the queue
  /// with the lock dropped around each send.
  void SendFrame(const std::string& frame);

  /// Drains pending_writes_ until empty or the socket fails. Called
  /// only by the SendFrame invocation that installed itself as the
  /// active writer (writer_active_).
  void DrainWrites();

  /// Removes a finished/failed query from the in-flight map.
  void ForgetQuery(uint64_t request_id);

  const int fd_;
  const int id_;
  const Context context_;

  Mutex mu_;
  std::unordered_map<uint64_t, PendingQuery> inflight_ SJ_GUARDED_BY(mu_);

  Mutex write_mu_;
  bool write_failed_ SJ_GUARDED_BY(write_mu_) = false;
  /// Reply frames waiting for the socket, in completion order.
  std::deque<std::string> pending_writes_ SJ_GUARDED_BY(write_mu_);
  /// True while some SendFrame call is draining the queue; at most one
  /// drainer exists, so whole frames never interleave on the wire.
  bool writer_active_ SJ_GUARDED_BY(write_mu_) = false;
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_SESSION_H_
