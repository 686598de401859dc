#include "server/server.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace spatialjoin {
namespace server {

namespace {

// Distinguishes sockets of multiple servers in one process (tests run
// several side by side).
std::atomic<int> socket_sequence{0};

}  // namespace

std::string Server::DefaultSocketPath() {
  char path[96];
  std::snprintf(path, sizeof(path), "/tmp/sj_server_%d_%d.sock",
                static_cast<int>(::getpid()),
                socket_sequence.fetch_add(1, std::memory_order_relaxed));
  return path;
}

Server::Server(exec::ThreadPool* pool, const Options& options)
    : pool_(pool),
      options_(options),
      scheduler_(pool, {.max_inflight = options.max_inflight}) {
  SJ_CHECK(pool != nullptr);
  if (options_.socket_path.empty()) {
    options_.socket_path = DefaultSocketPath();
  }
}

Server::~Server() { Stop(); }

uint32_t Server::RegisterDataset(exec::FrozenTree r_tree,
                                 exec::FrozenTree s_tree) {
  SJ_CHECK_MSG(!started_,
               "datasets must be registered before Server::Start");
  return registry_.Add(std::move(r_tree), std::move(s_tree));
}

Status Server::Start() {
  SJ_CHECK_MSG(!started_, "Server::Start called twice");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path exceeds AF_UNIX limit");
  }
  ::memcpy(addr.sun_path, options_.socket_path.c_str(),
           options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed");
  }
  // A previous run that died uncleanly may have left the file; bind
  // would then fail spuriously. Paths are per-pid-per-sequence, so the
  // unlink can only ever hit such a leftover.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("cannot bind/listen on ") +
                            options_.socket_path);
  }

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  SJ_EVENT(kMessage, kInfo, "server listening on %s (max_inflight %d)",
           options_.socket_path.c_str(), scheduler_.max_inflight());
  return Status::Ok();
}

void Server::AcceptLoop() {
  Tracing::SetThreadName("server.accept");
  ActivityScope activity("server.accept", "accept");
  while (true) {
    // Blocking in accept() is the steady state, not a stall; Beat() below
    // re-activates the scope for the brief handling window.
    activity.SetIdle(true);
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() shuts the listening socket down; accept then fails with
      // EINVAL and the loop ends.
      return;
    }
    activity.Beat();
    Session::Context context;
    context.registry = &registry_;
    context.scheduler = &scheduler_;
    context.pool = pool_;
    context.default_deadline_ns = options_.default_deadline_ns;
    auto session =
        std::make_shared<Session>(fd, next_session_id_++, context);
    sessions_.push_back(session);
    reader_threads_.emplace_back(
        [session = std::move(session)] { session->ServeLoop(); });
  }
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;

  // Order matters: (1) no new connections, (2) unblock every reader —
  // disconnect cancels their in-flight queries, (3) wait for the
  // (now-cancelled) queries to leave the pool, (4) release the sessions.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  for (auto& session : sessions_) session->Shutdown();
  for (auto& thread : reader_threads_) thread.join();
  scheduler_.Drain();
  sessions_.clear();  // last refs (barring client-held ones) close the fds
  reader_threads_.clear();

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  SJ_EVENT(kMessage, kInfo, "server on %s stopped",
           options_.socket_path.c_str());
}

}  // namespace server
}  // namespace spatialjoin
