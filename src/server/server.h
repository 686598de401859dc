#ifndef SPATIALJOIN_SERVER_SERVER_H_
#define SPATIALJOIN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/frozen_tree.h"
#include "exec/thread_pool.h"
#include "server/dataset_registry.h"
#include "server/scheduler.h"
#include "server/session.h"

namespace spatialjoin {
namespace server {

/// The query service front-end (DESIGN.md §12): a Unix-domain stream
/// socket accepting the length-prefixed protocol of server/protocol.h.
///
/// Lifecycle: construct → RegisterDataset (repeat) → Start → serve →
/// Stop (idempotent; also run by the destructor). Registration is only
/// legal before Start — the registry is lock-free because it is immutable
/// while serving.
///
/// Threads: one I/O thread, however many sessions are open, and the
/// caller-supplied thread pool shared by *all* query execution (one
/// worker per running query). The I/O thread's epoll loop alone makes
/// socket calls; a finished query queues its reply and wakes it through
/// an eventfd. The scheduler's admission bound keeps the pool's sharing
/// fair: at most `max_inflight` queries occupy it, everything beyond is
/// rejected with a backpressure reply the moment it is decoded.
class Server {
 public:
  struct Options {
    /// Filesystem path of the Unix socket. Empty = a fresh
    /// "/tmp/sj_server_<pid>_<seq>.sock" (see DefaultSocketPath).
    std::string socket_path;
    /// Admission bound; <= 0 = pool worker count (QueryScheduler).
    int max_inflight = 0;
    /// Deadline applied to requests that do not carry one (0 = none).
    int64_t default_deadline_ns = 0;
  };

  /// Fresh unique socket path under /tmp (AF_UNIX paths are limited to
  /// ~107 bytes, so /tmp rather than a deep build directory).
  static std::string DefaultSocketPath();

  Server(exec::ThreadPool* pool, const Options& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops if still running.
  ~Server();

  /// Pre-Start only: snapshots are moved in, and the returned id is what
  /// clients put in SelectRequest/JoinRequest::dataset_id.
  uint32_t RegisterDataset(exec::FrozenTree r_tree, exec::FrozenTree s_tree);

  /// Binds, listens, and spawns the I/O thread. Fails (and leaves the
  /// server stopped) if the socket path cannot be bound.
  Status Start();

  /// Graceful shutdown: the loop closes the listener and reaps every
  /// session (disconnect cancels their in-flight queries) and exits; the
  /// scheduler drains; the socket file is removed.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }
  QueryScheduler::Stats scheduler_stats() const {
    return scheduler_.stats();
  }
  int max_inflight() const { return scheduler_.max_inflight(); }

 private:
  using Sessions = std::unordered_map<int, std::shared_ptr<Session>>;

  void RunLoop();
  /// Accepts every pending connection. Returns when to re-arm the
  /// listener if descriptors or memory ran out (it left the epoll set).
  int64_t Accept();
  /// Handles `events` (none: replies were queued) on a session's socket,
  /// then waits for input unless over Session::kMaxQueuedBytes, and for
  /// output while replies are queued.
  void Serve(Sessions::iterator it, uint32_t events, char* buf,
             size_t size);
  void FlushWoken();
  void Reap(Sessions::iterator it);
  /// Pool side: hands the session to the loop and wakes it.
  void Wake(int session_id);

  Options options_;
  DatasetRegistry registry_;
  QueryScheduler scheduler_;
  const Session::Context session_context_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Wake() and Stop() write, the loop reads
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  // Loop thread only.
  int next_session_id_ = 0;
  Sessions sessions_;  // by id

  Mutex woken_mu_;
  /// Sessions with replies queued since the loop last looked.
  std::vector<int> woken_ SJ_GUARDED_BY(woken_mu_);

  std::thread loop_thread_;  // after everything the loop uses
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_SERVER_H_
