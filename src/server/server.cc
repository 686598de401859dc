#include "server/server.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/analysis_annotations.h"
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
      // Stop() shuts the listening socket down; accept then fails with
      // EINVAL, and only that ends the loop.
      if (errno == EINVAL) return;
      // Out of descriptors (EMFILE, ENFILE) or memory: the connection
      // waits in the backlog while ending sessions free descriptors.
      if (errno != EINTR) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    activity.Beat();
    JoinFinishedReaders();
    Session::Context context;
    context.registry = &registry_;
    context.scheduler = &scheduler_;
    context.pool = pool_;
    context.default_deadline_ns = options_.default_deadline_ns;
    const int id = next_session_id_++;
    MutexLock lock(readers_mu_);
    Reader& reader = readers_[id];
    reader.session = std::make_shared<Session>(fd, id, context);
    reader.thread =
        std::thread(&Server::RunReader, this, id, reader.session.get());
  }
}

void Server::RunReader(int id, Session* session) {
  session->ServeLoop();  // readers_ holds `session` until this erases it
  Reader ended;
  {
    MutexLock lock(readers_mu_);
    ended = std::move(readers_.extract(id).mapped());
    finished_.push_back(std::move(ended.thread));
  }
  reader_exited_.NotifyAll();
  // `ended` drops unlocked: unless a query still holds the session, its
  // socket closes now.
}

void Server::JoinFinishedReaders() {
  std::vector<std::thread> finished;
  {
    MutexLock lock(readers_mu_);
    finished.swap(finished_);
  }
  for (std::thread& thread : finished) {
    SJ_BOUNDED_WORK;  // readers whose sessions ended since the last call
    thread.join();
  }
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;

  // Order matters: (1) no new connections, (2) unblock every reader —
  // disconnect cancels their in-flight queries — and wait for each to
  // drop its session, (3) wait for the (now-cancelled) queries, which
  // hold the last session references, to leave the pool.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  {
    MutexLock lock(readers_mu_);
    for (auto& [id, reader] : readers_) reader.session->Shutdown();
    while (!readers_.empty()) reader_exited_.Wait(readers_mu_);
  }
  JoinFinishedReaders();
  scheduler_.Drain();

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  SJ_EVENT(kMessage, kInfo, "server on %s stopped",
           options_.socket_path.c_str());
}

}  // namespace server
}  // namespace spatialjoin
