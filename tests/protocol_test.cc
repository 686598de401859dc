// Wire-protocol layer tests (DESIGN.md §12): framing round-trips, the
// decoder's rejection of truncated/oversized/garbage frames, and a
// fuzz-style randomized pass proving the payload decoders never crash or
// over-read on arbitrary bytes (the ASan job runs this suite).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>

#include "core/spatial_join.h"
#include "server/protocol.h"

namespace spatialjoin {
namespace server {
namespace {

// Pulls exactly one frame out of an encoded buffer, asserting the stream
// contains nothing else.
Frame DecodeOne(const std::string& wire) {
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed(wire).ok());
  Frame frame;
  EXPECT_TRUE(decoder.Next(&frame));
  Frame extra;
  EXPECT_FALSE(decoder.Next(&extra));
  return frame;
}

TEST(ProtocolFraming, PingPongRoundTrip) {
  Frame frame = DecodeOne(EncodePing(42));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kPing));
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_TRUE(frame.payload.empty());

  frame = DecodeOne(EncodePong(7));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kPong));
  EXPECT_EQ(frame.request_id, 7u);
}

TEST(ProtocolFraming, SelectRequestRoundTrip) {
  SelectRequest request;
  request.dataset_id = 3;
  request.strategy = SelectStrategy::kJoinIndexLookup;
  request.op_code = static_cast<uint8_t>(WireOp::kWithinDistance);
  request.op_param = 12.5;
  request.selector = Rectangle(1.25, -2.5, 30.0, 40.0);
  request.deadline_ns = 5'000'000;

  Frame frame = DecodeOne(EncodeSelectRequest(99, request));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kSelect));
  EXPECT_EQ(frame.request_id, 99u);

  Result<SelectRequest> decoded = DecodeSelectRequest(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().dataset_id, 3u);
  EXPECT_EQ(decoded.value().strategy, SelectStrategy::kJoinIndexLookup);
  EXPECT_EQ(decoded.value().op_code,
            static_cast<uint8_t>(WireOp::kWithinDistance));
  EXPECT_DOUBLE_EQ(decoded.value().op_param, 12.5);
  EXPECT_EQ(decoded.value().selector, Rectangle(1.25, -2.5, 30.0, 40.0));
  EXPECT_EQ(decoded.value().deadline_ns, 5'000'000);
}

TEST(ProtocolFraming, JoinRequestRoundTrip) {
  JoinRequest request;
  request.dataset_id = 1;
  request.strategy = JoinStrategy::kParallelTreeJoin;
  request.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
  request.deadline_ns = 0;

  Frame frame = DecodeOne(EncodeJoinRequest(5, request));
  Result<JoinRequest> decoded = DecodeJoinRequest(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().dataset_id, 1u);
  EXPECT_EQ(decoded.value().strategy, JoinStrategy::kParallelTreeJoin);
  EXPECT_EQ(decoded.value().deadline_ns, 0);
}

TEST(ProtocolFraming, CancelRequestRoundTrip) {
  Frame frame = DecodeOne(EncodeCancelRequest(8, CancelRequest{12345}));
  Result<CancelRequest> decoded = DecodeCancelRequest(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().target_request_id, 12345u);
}

TEST(ProtocolFraming, ResultReplyRoundTripPreservesEverything) {
  JoinResult result;
  result.theta_upper_tests = 10;
  result.theta_tests = 20;
  result.nodes_accessed = 30;
  result.qual_pairs_examined = 40;
  result.matches = {{1, 2}, {3, 4}, {-5, 6}};

  Frame frame = DecodeOne(EncodeResultReply(77, result));
  Result<Reply> reply = DecodeReply(static_cast<MessageType>(frame.type),
                                    frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, MessageType::kResult);
  EXPECT_EQ(reply.value().request_id, 77u);
  EXPECT_EQ(reply.value().result.matches, result.matches);
  EXPECT_EQ(reply.value().result.theta_upper_tests, 10);
  EXPECT_EQ(reply.value().result.theta_tests, 20);
  EXPECT_EQ(reply.value().result.nodes_accessed, 30);
  EXPECT_EQ(reply.value().result.qual_pairs_examined, 40);
}

TEST(ProtocolFraming, ErrorReplyRoundTripAndMessageClamp) {
  Frame frame = DecodeOne(
      EncodeErrorReply(9, Status::NotFound("unknown dataset id")));
  Result<Reply> reply = DecodeReply(MessageType::kError, frame.request_id,
                                    frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().error_code, StatusCode::kNotFound);
  EXPECT_EQ(reply.value().error_message, "unknown dataset id");

  // A pathological message is clamped, not propagated unbounded.
  frame = DecodeOne(
      EncodeErrorReply(9, Status::Internal(std::string(100000, 'x'))));
  reply = DecodeReply(MessageType::kError, frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().error_message.size(), 1024u);
}

TEST(ProtocolFraming, StatsRequestRoundTrip) {
  Frame frame = DecodeOne(EncodeStatsRequest(11));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kStats));
  EXPECT_EQ(frame.request_id, 11u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ProtocolFraming, StatsReplyRoundTripPreservesJsonBytes) {
  // The reply is opaque UTF-8 to the protocol layer; arbitrary bytes
  // (embedded quotes, newlines) must survive untouched.
  const std::string json = "{\"a\": 1,\n \"b\": \"x\\\"y\"}";
  Frame frame = DecodeOne(EncodeStatsReply(13, json));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(MessageType::kStatsReply));
  Result<Reply> reply = DecodeReply(MessageType::kStatsReply,
                                    frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, MessageType::kStatsReply);
  EXPECT_EQ(reply.value().request_id, 13u);
  EXPECT_EQ(reply.value().stats_json, json);
}

TEST(ProtocolValidation, EmptyStatsReplyRejected) {
  EXPECT_FALSE(DecodeReply(MessageType::kStatsReply, 1, "").ok());
}

TEST(ProtocolFraming, ByteAtATimeDeliveryReassembles) {
  SelectRequest request;
  request.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
  request.selector = Rectangle(0, 0, 1, 1);
  const std::string wire =
      EncodeSelectRequest(6, request) + EncodePing(7);

  FrameDecoder decoder;
  Frame frame;
  int frames = 0;
  for (char c : wire) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&c, 1)).ok());
    while (decoder.Next(&frame)) {
      ++frames;
      EXPECT_EQ(frame.request_id, frames == 1 ? 6u : 7u);
    }
  }
  EXPECT_EQ(frames, 2);
  // Everything was consumed; nothing accumulates across frames.
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(ProtocolFraming, TruncatedFrameYieldsNothingAndNoError) {
  const std::string wire = EncodePing(1);
  FrameDecoder decoder;
  ASSERT_TRUE(
      decoder.Feed(std::string_view(wire.data(), wire.size() - 1)).ok());
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_FALSE(decoder.poisoned());  // incomplete, not invalid
}

TEST(ProtocolFraming, BadMagicPoisonsTheStream) {
  std::string wire = EncodePing(1);
  wire[4] = 0x00;  // corrupt the magic byte
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(wire).ok());
  EXPECT_TRUE(decoder.poisoned());
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(ProtocolFraming, OversizedPayloadLengthPoisonsBeforeBuffering) {
  // Header declaring a payload over the limit: rejected from the header
  // alone — the decoder never waits for (or allocates) the payload.
  std::string wire = EncodePing(1);
  wire[0] = static_cast<char>(0xff);
  wire[1] = static_cast<char>(0xff);
  wire[2] = static_cast<char>(0xff);
  wire[3] = static_cast<char>(0x7f);
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(wire).ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(ProtocolFraming, NonzeroReservedHeaderBitsPoison) {
  std::string wire = EncodePing(1);
  wire[6] = 1;
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(wire).ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(ProtocolFraming, GarbageAfterValidFrameStillDeliversTheValidOne) {
  std::string wire = EncodePing(3);
  wire += std::string(kFrameHeaderBytes, '\xde');  // then garbage
  FrameDecoder decoder;
  (void)decoder.Feed(wire);
  Frame frame;
  EXPECT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.request_id, 3u);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(ProtocolValidation, SelectRequestRejectsMalformedPayloads) {
  SelectRequest good;
  good.op_code = static_cast<uint8_t>(WireOp::kOverlaps);
  good.selector = Rectangle(0, 0, 1, 1);
  const std::string frame = EncodeSelectRequest(1, good);
  std::string payload = frame.substr(kFrameHeaderBytes);

  EXPECT_FALSE(DecodeSelectRequest(payload.substr(1)).ok());  // wrong size
  EXPECT_FALSE(DecodeSelectRequest(payload + "x").ok());

  std::string bad = payload;
  bad[6] = 1;  // reserved bits
  EXPECT_FALSE(DecodeSelectRequest(bad).ok());

  // Strategy bytes past the last SelectStrategy (kJoinIndexLookup = 2).
  for (const uint8_t strategy : {uint8_t{3}, uint8_t{99}}) {
    bad = payload;
    bad[4] = static_cast<char>(strategy);
    const Result<SelectRequest> decoded = DecodeSelectRequest(bad);
    ASSERT_FALSE(decoded.ok()) << int{strategy};
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << int{strategy};
  }

  // min > max rectangle.
  SelectRequest inverted = good;
  inverted.selector = Rectangle(0, 0, 1, 1);
  std::string wire = EncodeSelectRequest(1, inverted);
  // Swap min_x and max_x fields (offsets 16 and 32 of the payload).
  std::string p = wire.substr(kFrameHeaderBytes);
  for (int i = 0; i < 8; ++i) std::swap(p[16 + i], p[32 + i]);
  EXPECT_FALSE(DecodeSelectRequest(p).ok());
}

TEST(ProtocolValidation, ResultReplyRejectsLengthMismatch) {
  JoinResult result;
  result.matches = {{1, 2}};
  std::string frame = EncodeResultReply(1, result);
  std::string payload = frame.substr(kFrameHeaderBytes);
  // Claim two pairs while carrying bytes for one.
  payload[32] = 2;
  EXPECT_FALSE(DecodeReply(MessageType::kResult, 1, payload).ok());
}

// Boundary frames around the framing limits: payload sizes 0, cap-1,
// cap, and cap+1, the maximum request id, and a zero-pair RESULT. The
// decoder must accept everything up to and including the cap and poison
// the stream one byte past it.
TEST(ProtocolBoundary, EmptyPayloadFrames) {
  Frame frame = DecodeOne(EncodePing(1));
  EXPECT_EQ(frame.payload.size(), 0u);
  frame = DecodeOne(EncodeStatsRequest(2));
  EXPECT_EQ(frame.payload.size(), 0u);
}

TEST(ProtocolBoundary, PayloadAtCapMinusOneAndAtCapRoundTrip) {
  for (size_t size : {static_cast<size_t>(kMaxPayloadBytes) - 1,
                      static_cast<size_t>(kMaxPayloadBytes)}) {
    const std::string json(size, 'j');
    Frame frame = DecodeOne(EncodeStatsReply(21, json));
    EXPECT_EQ(frame.payload.size(), size);
    Result<Reply> reply = DecodeReply(MessageType::kStatsReply,
                                      frame.request_id, frame.payload);
    ASSERT_TRUE(reply.ok()) << size;
    EXPECT_EQ(reply.value().stats_json.size(), size);
  }
}

TEST(ProtocolBoundary, PayloadCapPlusOnePoisonsFromTheHeaderAlone) {
  // Hand-built header declaring kMaxPayloadBytes + 1: one past the
  // exact boundary the eager check guards. No payload bytes follow —
  // rejection must come from the header.
  const uint32_t len = kMaxPayloadBytes + 1;
  std::string wire = EncodePing(1);
  wire[0] = static_cast<char>(len & 0xff);
  wire[1] = static_cast<char>((len >> 8) & 0xff);
  wire[2] = static_cast<char>((len >> 16) & 0xff);
  wire[3] = static_cast<char>((len >> 24) & 0xff);
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(wire).ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(ProtocolBoundary, MaxRequestIdSurvivesRoundTrip) {
  const uint64_t id = std::numeric_limits<uint64_t>::max();
  Frame frame = DecodeOne(EncodePing(id));
  EXPECT_EQ(frame.request_id, id);

  JoinResult result;
  result.matches = {{7, 8}};
  frame = DecodeOne(EncodeResultReply(id, result));
  Result<Reply> reply = DecodeReply(static_cast<MessageType>(frame.type),
                                    frame.request_id, frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().request_id, id);
}

TEST(ProtocolBoundary, ZeroPairResultReplyRoundTrips) {
  JoinResult empty;
  empty.theta_tests = 5;
  Frame frame = DecodeOne(EncodeResultReply(3, empty));
  Result<Reply> reply = DecodeReply(MessageType::kResult, frame.request_id,
                                    frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().result.matches.empty());
  EXPECT_EQ(reply.value().result.theta_tests, 5);
}

TEST(ProtocolBoundary, HeaderSplitAtEveryByteReassembles) {
  // Deliver the 16-byte header truncated at every possible split point:
  // the partial header must yield no frame and no poison, and the
  // remainder must complete the frame exactly once.
  const std::string wire = EncodePing(0xABCD);
  for (size_t cut = 1; cut < kFrameHeaderBytes; ++cut) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(0, cut)).ok());
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame)) << cut;
    EXPECT_FALSE(decoder.poisoned()) << cut;
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(cut)).ok());
    ASSERT_TRUE(decoder.Next(&frame)) << cut;
    EXPECT_EQ(frame.request_id, 0xABCDu);
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ProtocolValidation, MakeWireOperatorCoversTable1AndRejectsJunk) {
  for (uint8_t code = 1; code <= 6; ++code) {
    Result<std::unique_ptr<ThetaOperator>> op = MakeWireOperator(code, 5.0);
    EXPECT_TRUE(op.ok()) << static_cast<int>(code);
  }
  EXPECT_FALSE(MakeWireOperator(0, 1.0).ok());
  EXPECT_FALSE(MakeWireOperator(7, 1.0).ok());
  EXPECT_FALSE(MakeWireOperator(255, 1.0).ok());
  EXPECT_FALSE(
      MakeWireOperator(static_cast<uint8_t>(WireOp::kWithinDistance),
                       std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_FALSE(
      MakeWireOperator(static_cast<uint8_t>(WireOp::kWithinDistance), -1.0)
          .ok());
}

TEST(ProtocolValidation, IsRequestTypeMatchesTheEnum) {
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kPing)));
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kSelect)));
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kJoin)));
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kCancel)));
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kStats)));
  EXPECT_FALSE(IsRequestType(static_cast<uint8_t>(MessageType::kPong)));
  EXPECT_FALSE(IsRequestType(static_cast<uint8_t>(MessageType::kResult)));
  EXPECT_FALSE(IsRequestType(static_cast<uint8_t>(MessageType::kError)));
  EXPECT_FALSE(IsRequestType(static_cast<uint8_t>(MessageType::kStatsReply)));
  EXPECT_FALSE(IsRequestType(0));
  EXPECT_FALSE(IsRequestType(200));
}

// Fuzz-style: random byte strings through every decoder entry point.
// The assertions are "no crash, no hang, no over-read" (ASan enforces
// the memory half); a deterministic seed keeps failures reproducible.
TEST(ProtocolFuzz, RandomBytesNeverCrashTheDecoders) {
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 200);

  for (int round = 0; round < 2000; ++round) {
    std::string bytes(static_cast<size_t>(len(rng)), '\0');
    for (char& c : bytes) c = static_cast<char>(byte(rng));

    FrameDecoder decoder;
    (void)decoder.Feed(bytes);
    Frame frame;
    while (decoder.Next(&frame)) {
      // Any frame that survives framing gets thrown at every payload
      // decoder — none may crash regardless of the type byte.
      (void)DecodeSelectRequest(frame.payload);
      (void)DecodeJoinRequest(frame.payload);
      (void)DecodeCancelRequest(frame.payload);
      (void)DecodeReply(static_cast<MessageType>(frame.type),
                        frame.request_id, frame.payload);
    }
    (void)DecodeSelectRequest(bytes);
    (void)DecodeJoinRequest(bytes);
    (void)DecodeCancelRequest(bytes);
    (void)DecodeReply(MessageType::kResult, 0, bytes);
    (void)DecodeReply(MessageType::kError, 0, bytes);
    (void)DecodeReply(MessageType::kPong, 0, bytes);
    (void)DecodeReply(MessageType::kStatsReply, 0, bytes);
  }
}

// Fuzzing with a *valid-looking* header in front: exercises the payload
// completion path and multi-frame buffers rather than instant poisoning.
TEST(ProtocolFuzz, RandomPayloadsBehindValidHeadersNeverCrash) {
  std::mt19937_64 rng(0xFEED);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 120);
  std::uniform_int_distribution<int> type(0, 255);

  for (int round = 0; round < 2000; ++round) {
    const uint32_t payload_len = static_cast<uint32_t>(len(rng));
    std::string wire;
    wire.push_back(static_cast<char>(payload_len & 0xff));
    wire.push_back(static_cast<char>((payload_len >> 8) & 0xff));
    wire.push_back(static_cast<char>((payload_len >> 16) & 0xff));
    wire.push_back(static_cast<char>((payload_len >> 24) & 0xff));
    wire.push_back(static_cast<char>(kFrameMagic));
    wire.push_back(static_cast<char>(type(rng)));
    wire.push_back(0);
    wire.push_back(0);
    for (int i = 0; i < 8; ++i) wire.push_back(static_cast<char>(byte(rng)));
    for (uint32_t i = 0; i < payload_len; ++i) {
      wire.push_back(static_cast<char>(byte(rng)));
    }

    // Split the wire at a random point to exercise reassembly.
    const size_t cut = wire.size() == 0
                           ? 0
                           : static_cast<size_t>(rng() % wire.size());
    FrameDecoder decoder;
    (void)decoder.Feed(std::string_view(wire).substr(0, cut));
    Frame frame;
    while (decoder.Next(&frame)) {
    }
    (void)decoder.Feed(std::string_view(wire).substr(cut));
    while (decoder.Next(&frame)) {
      (void)DecodeSelectRequest(frame.payload);
      (void)DecodeJoinRequest(frame.payload);
      (void)DecodeCancelRequest(frame.payload);
      (void)DecodeReply(static_cast<MessageType>(frame.type),
                        frame.request_id, frame.payload);
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace spatialjoin
