#include "server/client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "common/analysis_annotations.h"
#include "common/check.h"
#include "obs/timer.h"

namespace spatialjoin {
namespace server {

ServiceClient::ServiceClient(int fd) : fd_(fd) {}

ServiceClient::~ServiceClient() { ::close(fd_); }

Result<std::unique_ptr<ServiceClient>> ServiceClient::Connect(
    const std::string& socket_path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path exceeds AF_UNIX limit");
  }
  ::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int64_t give_up_ns =
      MonotonicNowNs() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      // Private constructor (fd ownership transfer), so make_unique
      // cannot reach it.  // sj-lint: allow(naked-new)
      return std::unique_ptr<ServiceClient>(new ServiceClient(fd));
    }
    ::close(fd);
    // ENOENT/ECONNREFUSED: the server has not bound (or not listened)
    // yet — the retry loop is the documented way to race server startup.
    if (MonotonicNowNs() >= give_up_ns) {
      return Status::NotFound(std::string("cannot connect to ") +
                              socket_path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status ServiceClient::Ping() {
  const uint64_t id = next_request_id_++;
  Status sent = SendFrame(EncodePing(id));
  if (!sent.ok()) return sent;
  Result<Reply> reply = WaitReply(id);
  if (!reply.ok()) return reply.status();
  if (reply.value().type != MessageType::kPong) {
    return Status::Internal("ping answered with a non-pong reply");
  }
  return Status::Ok();
}

Result<std::string> ServiceClient::Stats() {
  const uint64_t id = next_request_id_++;
  Status sent = SendFrame(EncodeStatsRequest(id));
  if (!sent.ok()) return sent;
  Result<Reply> reply = WaitReply(id);
  if (!reply.ok()) return reply.status();
  if (reply.value().type != MessageType::kStatsReply) {
    return Status::Internal("STATS answered with a non-stats reply");
  }
  return std::move(reply).value().stats_json;
}

Result<uint64_t> ServiceClient::SendSelect(const SelectRequest& request) {
  const uint64_t id = next_request_id_++;
  Status sent = SendFrame(EncodeSelectRequest(id, request));
  if (!sent.ok()) return sent;
  return id;
}

Result<uint64_t> ServiceClient::SendJoin(const JoinRequest& request) {
  const uint64_t id = next_request_id_++;
  Status sent = SendFrame(EncodeJoinRequest(id, request));
  if (!sent.ok()) return sent;
  return id;
}

Status ServiceClient::Cancel(uint64_t target_request_id) {
  const uint64_t id = next_request_id_++;
  Status sent =
      SendFrame(EncodeCancelRequest(id, CancelRequest{target_request_id}));
  if (!sent.ok()) return sent;
  Result<Reply> ack = WaitReply(id);
  if (!ack.ok()) return ack.status();
  if (ack.value().type != MessageType::kPong) {
    return Status::Internal("cancel answered with a non-pong reply");
  }
  return Status::Ok();
}

Result<Reply> ServiceClient::WaitReply(uint64_t request_id) {
  while (true) {
    SJ_BOUNDED_WORK;  // client-side; exits when the awaited id arrives or
                      // the stream breaks (every request gets one reply)
    auto it = stashed_.find(request_id);
    if (it != stashed_.end()) {
      Reply reply = std::move(it->second);
      stashed_.erase(it);
      return reply;
    }
    Result<Reply> next = ReadReply();
    if (!next.ok()) return next.status();
    // Replies arrive in completion order, not send order; everything
    // that is not the awaited id is stashed for a later WaitReply.
    stashed_[next.value().request_id] = std::move(next).value();
  }
}

Result<Reply> ServiceClient::Select(const SelectRequest& request) {
  Result<uint64_t> id = SendSelect(request);
  if (!id.ok()) return id.status();
  return WaitReply(id.value());
}

Result<Reply> ServiceClient::Join(const JoinRequest& request) {
  Result<uint64_t> id = SendJoin(request);
  if (!id.ok()) return id.status();
  return WaitReply(id.value());
}

Status ServiceClient::SendFrame(const std::string& frame) {
  if (!broken_.ok()) return broken_;
  size_t sent = 0;
  while (sent < frame.size()) {
    SJ_BOUNDED_WORK;  // client-side; one frame's bytes
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      broken_ = Status::Internal("send to server failed");
      return broken_;
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<Reply> ServiceClient::ReadReply() {
  if (!broken_.ok()) return broken_;
  char buf[1 << 16];
  while (true) {
    SJ_BOUNDED_WORK;  // client-side; exits on a frame, poison, or EOF
    Frame frame;
    if (decoder_.Next(&frame)) {
      const auto type = static_cast<MessageType>(frame.type);
      if (IsRequestType(frame.type)) {
        broken_ = Status::Internal("server sent a request-type frame");
        return broken_;
      }
      Result<Reply> reply = DecodeReply(type, frame.request_id,
                                        frame.payload);
      if (!reply.ok()) broken_ = reply.status();
      return reply;
    }
    if (decoder_.poisoned()) {
      broken_ = decoder_.error();
      return broken_;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      broken_ = Status::Internal("server closed the connection");
      return broken_;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      broken_ = Status::Internal("recv from server failed");
      return broken_;
    }
    Status fed = decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (!fed.ok()) {
      broken_ = fed;
      return broken_;
    }
  }
}

}  // namespace server
}  // namespace spatialjoin
