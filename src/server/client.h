#ifndef SPATIALJOIN_SERVER_CLIENT_H_
#define SPATIALJOIN_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "server/protocol.h"

namespace spatialjoin {
namespace server {

/// Blocking client for the query service, used by the tests and the load
/// bench. Deliberately single-threaded (one connection per thread is the
/// load-generation pattern), but fully *pipelined*: Send* enqueues a
/// request and returns its id immediately, WaitReply blocks until that
/// id's reply arrives — stashing any other replies that pass by, since
/// the server completes queries out of order.
class ServiceClient {
 public:
  /// Connects to the server's Unix socket, retrying (the server may still
  /// be binding) until `timeout_ms` elapses.
  static Result<std::unique_ptr<ServiceClient>> Connect(
      const std::string& socket_path, int timeout_ms = 5000);

  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Synchronous round trip; proves the connection is live.
  Status Ping();

  /// Synchronous STATS round trip: the server's live telemetry snapshot
  /// as raw JSON (sj_top polls this).
  Result<std::string> Stats();

  /// Pipelined sends; the returned id is what WaitReply takes. Ids are
  /// assigned by the client, monotonically, starting at 1.
  Result<uint64_t> SendSelect(const SelectRequest& request);
  Result<uint64_t> SendJoin(const JoinRequest& request);
  /// Requests cancellation of an in-flight query. The ack is consumed
  /// internally; the cancelled query's own reply still arrives under its
  /// own id (kError/CANCELLED if the cancel won the race, kResult if it
  /// lost).
  Status Cancel(uint64_t target_request_id);

  /// Blocks until the reply for `request_id` arrives. A transport error
  /// (server gone, malformed reply) is returned as a Status and poisons
  /// the connection.
  Result<Reply> WaitReply(uint64_t request_id);

  /// Convenience: send + wait.
  Result<Reply> Select(const SelectRequest& request);
  Result<Reply> Join(const JoinRequest& request);

 private:
  explicit ServiceClient(int fd);

  Status SendFrame(const std::string& frame);
  /// Reads until at least one frame is decodable; returns a decoded
  /// reply (any id).
  Result<Reply> ReadReply();

  int fd_;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
  std::unordered_map<uint64_t, Reply> stashed_;
  Status broken_;  // sticky transport error
};

}  // namespace server
}  // namespace spatialjoin

#endif  // SPATIALJOIN_SERVER_CLIENT_H_
