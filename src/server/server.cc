#include "server/server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <utility>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace spatialjoin {
namespace server {

namespace {

// Distinguishes sockets of multiple servers in one process (tests run
// several side by side).
std::atomic<int> socket_sequence{0};

// epoll tags of the two descriptors that are not sessions; a session's
// tag is its id.
constexpr uint64_t kListenerTag = ~uint64_t{0};
constexpr uint64_t kWakeTag = ~uint64_t{0} - 1;
// How long the listener stays out of the set after accept4 ran out of
// descriptors or memory.
constexpr int kRearmMs = 10;

// Adds (op EPOLL_CTL_ADD) or updates (EPOLL_CTL_MOD) `fd`'s interest.
bool Control(int epoll_fd, int op, int fd, uint32_t events, uint64_t tag) {
  epoll_event event{.events = events, .data = {.u64 = tag}};
  return ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
}

}  // namespace

std::string Server::DefaultSocketPath() {
  char path[96];
  std::snprintf(path, sizeof(path), "/tmp/sj_server_%d_%d.sock",
                static_cast<int>(::getpid()),
                socket_sequence.fetch_add(1, std::memory_order_relaxed));
  return path;
}

Server::Server(exec::ThreadPool* pool, const Options& options)
    : options_(options),
      scheduler_(pool, {.max_inflight = options.max_inflight}),
      session_context_{&registry_, &scheduler_, pool,
                       options.default_deadline_ns,
                       [this](int session_id) { Wake(session_id); }} {
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

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  // A previous run that died uncleanly may have left the file; bind
  // would then fail spuriously. Paths are per-pid-per-sequence, so the
  // unlink can only ever hit such a leftover.
  ::unlink(options_.socket_path.c_str());
  if (epoll_fd_ < 0 || wake_fd_ < 0 || listen_fd_ < 0 ||
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0 ||
      !Control(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenerTag) ||
      !Control(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN, kWakeTag)) {
    for (int* fd : {&epoll_fd_, &wake_fd_, &listen_fd_}) {
      ::close(std::exchange(*fd, -1));  // close(-1) fails harmlessly
    }
    return Status::Internal(std::string("cannot bind/listen on ") +
                            options_.socket_path);
  }

  started_ = true;
  stopping_.store(false);
  loop_thread_ = std::thread([this] { RunLoop(); });
  SJ_EVENT(kMessage, kInfo, "server listening on %s (max_inflight %d)",
           options_.socket_path.c_str(), scheduler_.max_inflight());
  return Status::Ok();
}

void Server::RunLoop() {
  Tracing::SetThreadName("server.loop");
  ActivityScope activity("server.loop", "epoll");
  char buf[1 << 16];
  epoll_event ready[64];
  int64_t rearm_ns = 0;  // when the listener returns to the set; 0 = in it
  while (!stopping_.load()) {
    // Waiting for events is the steady state, not a stall; Beat() below
    // re-activates the scope for the handling window.
    activity.SetIdle(true);
    const int n =
        ::epoll_wait(epoll_fd_, ready, 64, rearm_ns == 0 ? -1 : kRearmMs);
    activity.Beat();
    if (rearm_ns != 0 && MonotonicNowNs() >= rearm_ns) {
      Control(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenerTag);
      rearm_ns = 0;
    }
    for (int i = 0; i < n; ++i) {
      SJ_BOUNDED_WORK;  // at most 64 ready descriptors
      const uint64_t tag = ready[i].data.u64;
      if (tag == kListenerTag) {
        rearm_ns = Accept();
      } else if (tag == kWakeTag) {
        FlushWoken();
      } else if (auto it = sessions_.find(static_cast<int>(tag));
                 it != sessions_.end()) {  // else reaped in this batch
        Serve(it, ready[i].events, buf, sizeof(buf));
      }
    }
  }
  ::close(std::exchange(listen_fd_, -1));
  while (!sessions_.empty()) Reap(sessions_.begin());
}

int64_t Server::Accept() {
  while (true) {
    SJ_BOUNDED_WORK;  // ends once the backlog is empty
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors or memory: the connection waits in the
        // backlog while ending sessions free descriptors.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        return MonotonicNowNs() + int64_t{kRearmMs} * 1'000'000;
      }
      continue;  // EINTR, or a connection aborted while queued
    }
    const int id = next_session_id_++;
    auto session = std::make_shared<Session>(fd, id, session_context_);
    auto it = sessions_.emplace(id, std::move(session)).first;
    if (!Control(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN, id)) Reap(it);
  }
}

void Server::Serve(Sessions::iterator it, uint32_t events, char* buf,
                   size_t size) {
  Session& session = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 ||
      !session.Serve((events & EPOLLIN) ? buf : nullptr, size)) {
    Reap(it);
    return;
  }
  const size_t queued = session.QueuedBytes();
  Control(epoll_fd_, EPOLL_CTL_MOD, session.fd(),
          (queued > Session::kMaxQueuedBytes ? 0u : uint32_t{EPOLLIN}) |
              (queued > 0 ? uint32_t{EPOLLOUT} : 0u),
          it->first);
}

void Server::FlushWoken() {
  // Drain the eventfd before taking the list: a Wake() after this read
  // writes it again, so no queued session is missed.
  eventfd_t count;
  eventfd_read(wake_fd_, &count);
  std::vector<int> woken;
  {
    MutexLock lock(woken_mu_);
    woken.swap(woken_);
  }
  for (const int id : woken) {
    SJ_BOUNDED_WORK;  // one entry per reply queued since the last wake
    // Ids are never reused: a reaped session's entry finds nothing.
    auto it = sessions_.find(id);
    if (it != sessions_.end()) Serve(it, 0, nullptr, 0);
  }
}

void Server::Reap(Sessions::iterator it) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd(), nullptr);
  it->second->Close();
  sessions_.erase(it);
}

void Server::Wake(int session_id) {
  bool first;
  {
    MutexLock lock(woken_mu_);
    first = woken_.empty();
    woken_.push_back(session_id);
  }
  if (first) eventfd_write(wake_fd_, 1);
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;

  // The loop closes the listener and reaps every session (disconnect
  // cancels their in-flight queries); the drain then waits for those
  // queries, whose completions may still write the eventfd.
  stopping_.store(true);
  eventfd_write(wake_fd_, 1);
  loop_thread_.join();
  scheduler_.Drain();
  ::close(std::exchange(wake_fd_, -1));
  ::close(std::exchange(epoll_fd_, -1));
  ::unlink(options_.socket_path.c_str());
  SJ_EVENT(kMessage, kInfo, "server on %s stopped",
           options_.socket_path.c_str());
}

}  // namespace server
}  // namespace spatialjoin
