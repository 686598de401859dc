#include "server/protocol.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/analysis_annotations.h"
#include "common/check.h"

namespace spatialjoin {
namespace server {

namespace {

// --- Little-endian primitives ------------------------------------------
// Byte-shift encoding pins the wire byte order independent of the host;
// the compiler reduces it to a plain store/load on little-endian targets.

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

SJ_UNTRUSTED uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

SJ_UNTRUSTED uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Bounds-checked sequential reader over a request/reply payload. Every
/// accessor reports underrun instead of reading past the view — wire
/// lengths are attacker-controlled and never trusted. The integer
/// accessors are SJ_UNTRUSTED taint sources: a value they produce may
/// not size an allocation, index a container, or bound a loop until an
/// SJ_VALIDATES sanitizer has range-checked it.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  SJ_UNTRUSTED bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<unsigned char>(data_[pos_]);
    pos_ += 1;
    return true;
  }
  SJ_UNTRUSTED bool ReadU16(uint16_t* v) {
    if (remaining() < 2) return false;
    *v = static_cast<uint16_t>(
        static_cast<unsigned char>(data_[pos_]) |
        (static_cast<unsigned char>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }
  SJ_UNTRUSTED bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  SJ_UNTRUSTED bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = LoadU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  SJ_UNTRUSTED bool ReadI64(int64_t* v) {
    uint64_t raw;
    if (!ReadU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }
  SJ_UNTRUSTED bool ReadF64(double* v) {
    uint64_t raw;
    if (!ReadU64(&raw)) return false;
    *v = std::bit_cast<double>(raw);
    return true;
  }
  /// Validating by construction: `n` is range-checked against the bytes
  /// actually buffered before any slice is taken, so a caller may pass a
  /// wire-derived length directly.
  SJ_VALIDATES bool ReadBytes(size_t n, std::string_view* v) {
    if (remaining() < n) return false;
    *v = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

std::string EncodeFrame(MessageType type, uint64_t request_id,
                        std::string_view payload) {
  SJ_CHECK_LE(payload.size(), static_cast<size_t>(kMaxPayloadBytes));
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.push_back(static_cast<char>(kFrameMagic));
  out.push_back(static_cast<char>(type));
  AppendU16(&out, 0);  // reserved
  AppendU64(&out, request_id);
  out.append(payload);
  return out;
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kCancelled);
}

/// Validates the 16-byte frame header at `h` (magic, reserved bits,
/// payload length against kMaxPayloadBytes). On OK the stored
/// `*payload_len` is a trusted allocation bound — this is the single
/// sanitizer between FrameDecoder's wire bytes and every buffer the
/// decoder sizes, shared by Feed's eager check and Next's recheck so
/// the two can never drift.
SJ_VALIDATES Status ValidateHeader(const char* h, uint32_t* payload_len) {
  const uint32_t len = LoadU32(h);
  const uint8_t magic = static_cast<unsigned char>(h[4]);
  const uint16_t reserved = static_cast<uint16_t>(
      static_cast<unsigned char>(h[6]) |
      (static_cast<unsigned char>(h[7]) << 8));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved header bits");
  }
  if (len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds limit");
  }
  *payload_len = len;
  return Status::Ok();
}

/// True iff the unread pair section is exactly `count` 16-byte pairs —
/// the cross-check that makes a wire-derived RESULT count safe to
/// reserve and iterate (the bytes to back every pair already arrived).
SJ_VALIDATES bool PairCountMatchesBytes(size_t remaining, uint32_t count) {
  return remaining == static_cast<size_t>(count) * 16;
}

}  // namespace

bool IsRequestType(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kPing:
    case MessageType::kSelect:
    case MessageType::kJoin:
    case MessageType::kCancel:
    case MessageType::kStats:
      return true;
    default:
      return false;
  }
}

Result<std::unique_ptr<ThetaOperator>> MakeWireOperator(uint8_t op_code,
                                                        double param) {
  if (!std::isfinite(param)) {
    return Status::InvalidArgument("non-finite operator parameter");
  }
  switch (static_cast<WireOp>(op_code)) {
    case WireOp::kOverlaps:
      return std::unique_ptr<ThetaOperator>(std::make_unique<OverlapsOp>());
    case WireOp::kWithinDistance:
      if (param < 0.0) {
        return Status::InvalidArgument("negative within_distance");
      }
      return std::unique_ptr<ThetaOperator>(
          std::make_unique<WithinDistanceOp>(param));
    case WireOp::kIncludes:
      return std::unique_ptr<ThetaOperator>(std::make_unique<IncludesOp>());
    case WireOp::kContainedIn:
      return std::unique_ptr<ThetaOperator>(
          std::make_unique<ContainedInOp>());
    case WireOp::kNorthwestOf:
      return std::unique_ptr<ThetaOperator>(
          std::make_unique<NorthwestOfOp>());
    case WireOp::kAdjacent:
      return std::unique_ptr<ThetaOperator>(std::make_unique<AdjacentOp>());
  }
  return Status::InvalidArgument("unknown wire operator code");
}

// --- Encoding ----------------------------------------------------------

std::string EncodePing(uint64_t request_id) {
  return EncodeFrame(MessageType::kPing, request_id, {});
}

std::string EncodePong(uint64_t request_id) {
  return EncodeFrame(MessageType::kPong, request_id, {});
}

std::string EncodeSelectRequest(uint64_t request_id, const SelectRequest& r) {
  std::string payload;
  payload.reserve(56);
  AppendU32(&payload, r.dataset_id);
  payload.push_back(static_cast<char>(r.strategy));
  payload.push_back(static_cast<char>(r.op_code));
  AppendU16(&payload, 0);  // reserved
  AppendF64(&payload, r.op_param);
  AppendF64(&payload, r.selector.min_x());
  AppendF64(&payload, r.selector.min_y());
  AppendF64(&payload, r.selector.max_x());
  AppendF64(&payload, r.selector.max_y());
  AppendI64(&payload, r.deadline_ns);
  return EncodeFrame(MessageType::kSelect, request_id, payload);
}

std::string EncodeJoinRequest(uint64_t request_id, const JoinRequest& r) {
  std::string payload;
  payload.reserve(24);
  AppendU32(&payload, r.dataset_id);
  payload.push_back(static_cast<char>(r.strategy));
  payload.push_back(static_cast<char>(r.op_code));
  AppendU16(&payload, 0);  // reserved
  AppendF64(&payload, r.op_param);
  AppendI64(&payload, r.deadline_ns);
  return EncodeFrame(MessageType::kJoin, request_id, payload);
}

std::string EncodeCancelRequest(uint64_t request_id, const CancelRequest& r) {
  std::string payload;
  payload.reserve(8);
  AppendU64(&payload, r.target_request_id);
  return EncodeFrame(MessageType::kCancel, request_id, payload);
}

std::string EncodeStatsRequest(uint64_t request_id) {
  return EncodeFrame(MessageType::kStats, request_id, {});
}

std::string EncodeStatsReply(uint64_t request_id, std::string_view json) {
  SJ_CHECK(!json.empty());
  return EncodeFrame(MessageType::kStatsReply, request_id, json);
}

std::string EncodeResultReply(uint64_t request_id, const JoinResult& result) {
  SJ_CHECK_LE(result.matches.size(), kMaxResultPairs);
  std::string payload;
  payload.reserve(40 + 16 * result.matches.size());
  AppendI64(&payload, result.theta_upper_tests);
  AppendI64(&payload, result.theta_tests);
  AppendI64(&payload, result.nodes_accessed);
  AppendI64(&payload, result.qual_pairs_examined);
  AppendU32(&payload, static_cast<uint32_t>(result.matches.size()));
  AppendU32(&payload, 0);  // reserved
  for (const auto& [r_tid, s_tid] : result.matches) {
    SJ_BOUNDED_WORK;  // result capped at kMaxResultPairs by the session
    AppendI64(&payload, r_tid);
    AppendI64(&payload, s_tid);
  }
  return EncodeFrame(MessageType::kResult, request_id, payload);
}

std::string EncodeErrorReply(uint64_t request_id, const Status& status) {
  std::string payload;
  // Clamp the message so a pathological Status cannot overflow a frame;
  // the reserve is the clamp's bound, whatever the message.
  constexpr size_t kMaxErrorMessage = 1024;
  const std::string_view msg =
      std::string_view(status.message()).substr(0, kMaxErrorMessage);
  payload.reserve(4 + kMaxErrorMessage);
  payload.push_back(static_cast<char>(status.code()));
  payload.push_back(0);  // pad
  AppendU16(&payload, static_cast<uint16_t>(msg.size()));
  payload.append(msg);
  return EncodeFrame(MessageType::kError, request_id, payload);
}

// --- Decoding ----------------------------------------------------------

Result<SelectRequest> DecodeSelectRequest(std::string_view payload) {
  if (payload.size() != 56) {
    return Status::InvalidArgument("SELECT request must be 56 bytes");
  }
  WireReader r(payload);
  SelectRequest req;
  uint8_t strategy = 0;
  uint16_t reserved = 0;
  double min_x, min_y, max_x, max_y;
  bool ok = r.ReadU32(&req.dataset_id) && r.ReadU8(&strategy) &&
            r.ReadU8(&req.op_code) && r.ReadU16(&reserved) &&
            r.ReadF64(&req.op_param) && r.ReadF64(&min_x) &&
            r.ReadF64(&min_y) && r.ReadF64(&max_x) && r.ReadF64(&max_y) &&
            r.ReadI64(&req.deadline_ns);
  SJ_CHECK(ok);  // size was pinned above; underrun is impossible
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved bits in SELECT");
  }
  if (strategy > static_cast<uint8_t>(SelectStrategy::kJoinIndexLookup)) {
    return Status::InvalidArgument("unknown select strategy");
  }
  req.strategy = static_cast<SelectStrategy>(strategy);
  if (!std::isfinite(min_x) || !std::isfinite(min_y) ||
      !std::isfinite(max_x) || !std::isfinite(max_y) || min_x > max_x ||
      min_y > max_y) {
    return Status::InvalidArgument("malformed selector rectangle");
  }
  req.selector = Rectangle(min_x, min_y, max_x, max_y);
  if (req.deadline_ns < 0) {
    return Status::InvalidArgument("negative deadline");
  }
  return req;
}

Result<JoinRequest> DecodeJoinRequest(std::string_view payload) {
  if (payload.size() != 24) {
    return Status::InvalidArgument("JOIN request must be 24 bytes");
  }
  WireReader r(payload);
  JoinRequest req;
  uint8_t strategy = 0;
  uint16_t reserved = 0;
  bool ok = r.ReadU32(&req.dataset_id) && r.ReadU8(&strategy) &&
            r.ReadU8(&req.op_code) && r.ReadU16(&reserved) &&
            r.ReadF64(&req.op_param) && r.ReadI64(&req.deadline_ns);
  SJ_CHECK(ok);
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved bits in JOIN");
  }
  if (strategy > static_cast<uint8_t>(JoinStrategy::kPartitionedJoin)) {
    return Status::InvalidArgument("unknown join strategy");
  }
  req.strategy = static_cast<JoinStrategy>(strategy);
  if (req.deadline_ns < 0) {
    return Status::InvalidArgument("negative deadline");
  }
  return req;
}

Result<CancelRequest> DecodeCancelRequest(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::InvalidArgument("CANCEL request must be 8 bytes");
  }
  WireReader r(payload);
  CancelRequest req;
  SJ_CHECK(r.ReadU64(&req.target_request_id));
  return req;
}

Result<Reply> DecodeReply(MessageType type, uint64_t request_id,
                          std::string_view payload) {
  Reply reply;
  reply.request_id = request_id;
  reply.type = type;
  switch (type) {
    case MessageType::kPong: {
      if (!payload.empty()) {
        return Status::InvalidArgument("PONG carries a payload");
      }
      return reply;
    }
    case MessageType::kResult: {
      WireReader r(payload);
      uint32_t count = 0;
      uint32_t reserved = 0;
      if (!r.ReadI64(&reply.result.theta_upper_tests) ||
          !r.ReadI64(&reply.result.theta_tests) ||
          !r.ReadI64(&reply.result.nodes_accessed) ||
          !r.ReadI64(&reply.result.qual_pairs_examined) ||
          !r.ReadU32(&count) || !r.ReadU32(&reserved)) {
        return Status::InvalidArgument("truncated RESULT header");
      }
      if (reserved != 0) {
        return Status::InvalidArgument("nonzero reserved bits in RESULT");
      }
      // Length cross-check before the allocation, not after: `count` is
      // wire data and must match the bytes that actually arrived.
      if (!PairCountMatchesBytes(r.remaining(), count)) {
        return Status::InvalidArgument("RESULT pair section length mismatch");
      }
      reply.result.matches.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        SJ_BOUNDED_WORK;  // count cross-checked against payload bytes above
        int64_t r_tid, s_tid;
        SJ_CHECK(r.ReadI64(&r_tid) && r.ReadI64(&s_tid));
        reply.result.matches.emplace_back(r_tid, s_tid);
      }
      return reply;
    }
    case MessageType::kStatsReply: {
      // The JSON itself is opaque here; an empty snapshot is the one
      // shape the server can never legitimately produce (the encoder
      // rejects it), so it marks a corrupt or truncated stream.
      if (payload.empty()) {
        return Status::InvalidArgument("empty STATS reply");
      }
      reply.stats_json.assign(payload);
      return reply;
    }
    case MessageType::kError: {
      WireReader r(payload);
      uint8_t code = 0, pad = 0;
      uint16_t msg_len = 0;
      if (!r.ReadU8(&code) || !r.ReadU8(&pad) || !r.ReadU16(&msg_len)) {
        return Status::InvalidArgument("truncated ERROR header");
      }
      if (pad != 0 || !ValidStatusCode(code) ||
          code == static_cast<uint8_t>(StatusCode::kOk)) {
        return Status::InvalidArgument("malformed ERROR reply");
      }
      std::string_view msg;
      if (!r.ReadBytes(msg_len, &msg) || r.remaining() != 0) {
        return Status::InvalidArgument("ERROR message length mismatch");
      }
      reply.error_code = static_cast<StatusCode>(code);
      reply.error_message.assign(msg);
      return reply;
    }
    default:
      return Status::InvalidArgument("unexpected reply type");
  }
}

// --- FrameDecoder ------------------------------------------------------

Status FrameDecoder::Feed(std::string_view data) {
  if (poisoned()) return error_;
  // Compact before appending so buffered_bytes(), not buffer_.size(),
  // bounds memory: consumed prefixes never accumulate across frames.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data);
  // Validate the header eagerly — garbage is detected as soon as its
  // first 16 bytes arrive, not when the (possibly huge) payload would
  // complete.
  if (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    uint32_t payload_len = 0;
    error_ = ValidateHeader(buffer_.data() + consumed_, &payload_len);
  }
  return error_;
}

bool FrameDecoder::Next(Frame* out) {
  if (poisoned()) return false;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return false;
  const char* h = buffer_.data() + consumed_;
  // Feed() validated magic/reserved/length the moment the header was
  // complete, so a well-formed header is an invariant here; revalidating
  // (rather than trusting the invariant) is what makes `payload_len` a
  // sanitized allocation bound at this use site too.
  uint32_t payload_len = 0;
  SJ_CHECK(ValidateHeader(h, &payload_len).ok());
  if (available < kFrameHeaderBytes + payload_len) return false;
  out->type = static_cast<unsigned char>(h[5]);
  out->request_id = LoadU64(h + 8);
  out->payload.assign(buffer_, consumed_ + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  // Re-run header validation for the *next* frame already in the buffer,
  // mirroring Feed()'s eager check.
  if (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    uint32_t next_len = 0;
    error_ = ValidateHeader(buffer_.data() + consumed_, &next_len);
  }
  return true;
}

}  // namespace server
}  // namespace spatialjoin
