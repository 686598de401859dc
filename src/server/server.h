#ifndef SPATIALJOIN_SERVER_SERVER_H_
#define SPATIALJOIN_SERVER_SERVER_H_

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
/// Threads: one accept thread, one reader thread per live connection
/// (joined once its session ends), and the caller-supplied work-stealing
/// pool shared by *all* query execution (inter- and intra-query
/// parallelism alike). The scheduler's admission bound is what keeps that
/// sharing fair: at most `max_inflight` queries occupy the pool,
/// everything beyond is rejected with a backpressure reply the moment it
/// is decoded.
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
    /// Listen backlog for bursts of connecting clients.
    int listen_backlog = 128;
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

  /// Binds, listens, and spawns the accept thread. Fails (and leaves the
  /// server stopped) if the socket path cannot be bound.
  Status Start();

  /// Graceful shutdown: stop accepting, half-close every session (their
  /// readers exit; disconnect cancels the sessions' in-flight queries),
  /// join all threads, drain the scheduler, remove the socket file. The
  /// only way the accept loop ends.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }
  bool running() const { return accept_thread_.joinable(); }
  QueryScheduler::Stats scheduler_stats() const {
    return scheduler_.stats();
  }
  int max_inflight() const { return scheduler_.max_inflight(); }

 private:
  void AcceptLoop();
  /// Reader thread body: serves the session, then retires its entry.
  void RunReader(int id, Session* session);
  /// Joins the readers whose sessions have ended.
  void JoinFinishedReaders();

  exec::ThreadPool* const pool_;
  Options options_;
  DatasetRegistry registry_;
  QueryScheduler scheduler_;

  int listen_fd_ = -1;
  bool started_ = false;
  std::thread accept_thread_;
  int next_session_id_ = 0;  // accept thread only

  struct Reader {
    std::shared_ptr<Session> session;
    std::thread thread;
  };
  Mutex readers_mu_;
  CondVar reader_exited_;
  /// Live sessions by id. A reader erases its entry when its session
  /// ends, dropping the server's reference (the socket closes once no
  /// query holds the session), and parks its thread in finished_.
  std::unordered_map<int, Reader> readers_ SJ_GUARDED_BY(readers_mu_);
  std::vector<std::thread> finished_ SJ_GUARDED_BY(readers_mu_);
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_SERVER_H_
