// Frame codec: round-trip property tests plus the malformed-frame corpus
// (ISSUE: truncated length prefix, oversized length, bad magic, checksum
// mismatch, trailing garbage) — every malformed shape must decode to a
// typed ParseError, never a crash, and an oversized length must be
// rejected before any payload allocation.

#include "server/frame.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "util/status.h"

namespace jinfer {
namespace server {
namespace {

std::vector<uint8_t> RandomPayload(std::mt19937_64& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

FrameHeader HeaderOf(const std::vector<uint8_t>& wire) {
  FrameHeader header;
  std::memcpy(&header, wire.data(), sizeof(header));
  return header;
}

std::vector<uint8_t> WithHeader(const FrameHeader& header,
                                const std::vector<uint8_t>& wire) {
  std::vector<uint8_t> out = wire;
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

// --- Round-trip properties -------------------------------------------------

TEST(FrameCodecTest, RoundTripsRandomPayloadsAtEverySize) {
  std::mt19937_64 rng(7);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{24}, size_t{255},
                   size_t{4096}, size_t{100000}}) {
    const std::vector<uint8_t> payload = RandomPayload(rng, n);
    const std::vector<uint8_t> wire =
        EncodeFrame(FrameType::kAnswer, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + n);

    auto header = DecodeFrameHeader(
        std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header->payload_bytes, n);

    auto frame = DecodeFramePayload(
        *header,
        std::span<const uint8_t>(wire.data() + kFrameHeaderBytes, n));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, FrameType::kAnswer);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(FrameCodecTest, RoundTripsEveryFrameType) {
  for (uint8_t type :
       {0x01, 0x02, 0x03, 0x04, 0x06, 0x41, 0x42, 0x44, 0x46, 0x47}) {
    const std::vector<uint8_t> payload = {1, 2, 3};
    const std::vector<uint8_t> wire =
        EncodeFrame(static_cast<FrameType>(type), payload);
    auto header = DecodeFrameHeader(
        std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
    ASSERT_TRUE(header.ok()) << "type " << int(type);
    EXPECT_EQ(header->type, type);
    EXPECT_TRUE(IsKnownFrameType(type));
  }
  EXPECT_TRUE(IsRequestType(0x01));
  EXPECT_FALSE(IsRequestType(0x41));
  EXPECT_FALSE(IsRequestType(0x00));
  EXPECT_FALSE(IsKnownFrameType(0x7f));
  // v1's stats pair is gone since v2, v2's answer-ok since v3 (an answer
  // is answered with a question).
  EXPECT_FALSE(IsKnownFrameType(0x05));
  EXPECT_FALSE(IsKnownFrameType(0x45));
  EXPECT_FALSE(IsKnownFrameType(0x43));
}

// --- The malformed-frame corpus --------------------------------------------

TEST(FrameCodecTest, RejectsBadMagic) {
  auto wire = EncodeFrame(FrameType::kMetrics, {});
  FrameHeader header = HeaderOf(wire);
  header.magic = 0xdeadbeef;
  wire = WithHeader(header, wire);
  auto decoded = DecodeFrameHeader(
      std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(decoded.status().ToString().find("magic"), std::string::npos);
}

TEST(FrameCodecTest, RejectsUnsupportedVersion) {
  EXPECT_EQ(kProtocolVersion, 3);
  // Versions 1 and 2 are previous wires, not fallbacks.
  for (uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{99}}) {
    auto wire = EncodeFrame(FrameType::kMetrics, {});
    FrameHeader header = HeaderOf(wire);
    header.version = version;
    wire = WithHeader(header, wire);
    auto decoded = DecodeFrameHeader(
        std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
    EXPECT_NE(decoded.status().ToString().find(
                  "unsupported protocol version " + std::to_string(version)),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(FrameCodecTest, RejectsUnknownType) {
  auto wire = EncodeFrame(FrameType::kMetrics, {});
  FrameHeader header = HeaderOf(wire);
  header.type = 0x33;
  wire = WithHeader(header, wire);
  auto decoded = DecodeFrameHeader(
      std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
}

TEST(FrameCodecTest, RejectsOversizedLengthBeforeBuffering) {
  // A hostile 4 GiB-ish length prefix must die at header validation — the
  // caller never allocates or waits for the claimed payload.
  auto wire = EncodeFrame(FrameType::kOpenSession, {});
  FrameHeader header = HeaderOf(wire);
  header.payload_bytes = 0xfffffff0u;
  wire = WithHeader(header, wire);
  auto decoded = DecodeFrameHeader(
      std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(decoded.status().ToString().find("oversized"),
            std::string::npos);
}

TEST(FrameCodecTest, RejectsChecksumMismatch) {
  const std::vector<uint8_t> payload = {10, 20, 30, 40};
  auto wire = EncodeFrame(FrameType::kAnswer, payload);
  wire[kFrameHeaderBytes + 2] ^= 0x01;  // Corrupt one payload byte.
  auto header = DecodeFrameHeader(
      std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  auto frame = DecodeFramePayload(
      *header, std::span<const uint8_t>(wire.data() + kFrameHeaderBytes,
                                        payload.size()));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(frame.status().ToString().find("checksum"), std::string::npos);
}

TEST(FrameCodecTest, RejectsPayloadLengthMismatch) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto wire = EncodeFrame(FrameType::kAnswer, payload);
  auto header = DecodeFrameHeader(
      std::span<const uint8_t>(wire.data(), kFrameHeaderBytes));
  ASSERT_TRUE(header.ok());
  auto frame = DecodeFramePayload(
      *header,
      std::span<const uint8_t>(wire.data() + kFrameHeaderBytes, 3));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), util::StatusCode::kParseError);
}

// --- FrameAssembler: frames out of a byte stream ---------------------------

TEST(FrameAssemblerTest, PopsFramesFedInAnyChunking) {
  // Frames of every size, back to back, fed in random chunks (one byte to
  // a few frames' worth): each pops once complete, intact and in order.
  std::mt19937_64 rng(11);
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> stream;
  for (size_t n : {size_t{0}, size_t{1}, size_t{23}, size_t{24},
                   size_t{4096}, size_t{70000}, size_t{5}}) {
    payloads.push_back(RandomPayload(rng, n));
    const std::vector<uint8_t> wire =
        EncodeFrame(FrameType::kQuestion, payloads.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  for (size_t max_chunk : {size_t{1}, size_t{7}, size_t{1000},
                           size_t{200000}}) {
    FrameAssembler in;
    size_t popped = 0;
    for (size_t at = 0; at < stream.size();) {
      const size_t n = std::min(stream.size() - at, 1 + rng() % max_chunk);
      in.Append(std::span<const uint8_t>(stream.data() + at, n));
      at += n;
      while (true) {
        auto ready = in.Ready();
        ASSERT_TRUE(ready.ok()) << ready.status().ToString();
        if (!*ready) break;
        auto frame = in.Pop();
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        ASSERT_LT(popped, payloads.size());
        EXPECT_EQ(frame->type, FrameType::kQuestion);
        EXPECT_EQ(frame->payload, payloads[popped]);
        ++popped;
      }
    }
    EXPECT_EQ(popped, payloads.size()) << "chunks of up to " << max_chunk;
    EXPECT_TRUE(in.empty());
  }
}

TEST(FrameAssemblerTest, RejectsAPoisonHeaderBeforeItsPayload) {
  // The header is validated as soon as its 24 bytes are here: the
  // assembler never waits for, or buffers toward, a claimed payload.
  auto wire = EncodeFrame(FrameType::kOpenSession, {});
  FrameHeader header = HeaderOf(wire);
  header.payload_bytes = 0xfffffff0u;
  wire = WithHeader(header, wire);
  FrameAssembler in;
  in.Append(std::span<const uint8_t>(wire.data(), kFrameHeaderBytes - 1));
  auto partial = in.Ready();
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(*partial);
  in.Append(std::span<const uint8_t>(wire.data() + kFrameHeaderBytes - 1, 1));
  auto ready = in.Ready();
  ASSERT_FALSE(ready.ok());
  EXPECT_NE(ready.status().ToString().find("oversized"), std::string::npos);
  EXPECT_LE(in.capacity(), 2 * kFrameHeaderBytes);
}

TEST(FrameAssemblerTest, RejectsAChecksumMismatchAndTrimsWhenDrained) {
  auto wire = EncodeFrame(FrameType::kAnswer, std::vector<uint8_t>{1, 2, 3});
  wire[kFrameHeaderBytes] ^= 0x01;
  FrameAssembler bad;
  bad.Append(wire);
  auto ready = bad.Ready();
  ASSERT_TRUE(ready.ok() && *ready);
  auto frame = bad.Pop();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().ToString().find("checksum"), std::string::npos);

  // Trim hands back a large buffer only once it is drained.
  FrameAssembler in;
  const std::vector<uint8_t> large =
      EncodeFrame(FrameType::kAnswer, std::vector<uint8_t>(100000, 9));
  in.Append(large);
  in.Trim(kReadChunk);
  EXPECT_GE(in.capacity(), large.size());  // Still holds the frame.
  auto ok = in.Ready();
  ASSERT_TRUE(ok.ok() && *ok);
  ASSERT_TRUE(in.Pop().ok());
  in.Trim(kReadChunk);
  EXPECT_EQ(in.capacity(), 0u);
}

// --- WireReader bounds and exactness ---------------------------------------

TEST(WireReaderTest, RejectsTruncatedScalars) {
  const uint8_t three[3] = {1, 2, 3};
  WireReader r((std::span<const uint8_t>(three)));
  EXPECT_FALSE(r.U32().ok());
  EXPECT_FALSE(r.U64().ok());
  auto got = r.U8();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1);
}

TEST(WireReaderTest, RejectsStringLengthPastEnd) {
  WireWriter w;
  w.U32(1000);  // Claims 1000 bytes; none follow.
  const auto bytes = std::move(w).Take();
  WireReader r((std::span<const uint8_t>(bytes)));
  auto s = r.Str();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), util::StatusCode::kParseError);
}

TEST(WireReaderTest, FinishRejectsTrailingGarbage) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  const auto bytes = std::move(w).Take();
  WireReader r((std::span<const uint8_t>(bytes)));
  ASSERT_TRUE(r.U8().ok());
  EXPECT_FALSE(r.Finish().ok());
  ASSERT_TRUE(r.U8().ok());
  EXPECT_TRUE(r.Finish().ok());
}

TEST(WireReaderTest, RoundTripsScalarsAndStrings) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const uint8_t a = static_cast<uint8_t>(rng());
    const uint32_t b = static_cast<uint32_t>(rng());
    const uint64_t c = rng();
    std::string s;
    for (size_t i = rng() % 40; i > 0; --i) {
      s.push_back(static_cast<char>(rng()));  // Arbitrary bytes, NULs too.
    }
    WireWriter w;
    w.U8(a);
    w.Str(s);
    w.U64(c);
    w.U32(b);
    const auto bytes = std::move(w).Take();
    WireReader r((std::span<const uint8_t>(bytes)));
    EXPECT_EQ(r.U8().ValueOrDie(), a);
    EXPECT_EQ(r.Str().ValueOrDie(), s);
    EXPECT_EQ(r.U64().ValueOrDie(), c);
    EXPECT_EQ(r.U32().ValueOrDie(), b);
    EXPECT_TRUE(r.Finish().ok());
  }
}

// --- Protocol bodies -------------------------------------------------------

TEST(ProtocolTest, RoundTripsOpenSession) {
  OpenSessionBody body;
  body.strategy = "L2S";
  body.seed = 0x1234567890abcdefULL;
  body.compress = 0;
  body.r_name = "Flight";
  body.p_name = "Hotel";
  body.r_csv = "From,To\nParis,Lille\n";
  body.p_csv = "City,Discount\nNYC,\"A,A\"\n";
  auto decoded = DecodeOpenSession(Encode(body));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->strategy, body.strategy);
  EXPECT_EQ(decoded->seed, body.seed);
  EXPECT_EQ(decoded->compress, body.compress);
  EXPECT_EQ(decoded->r_csv, body.r_csv);
  EXPECT_EQ(decoded->p_csv, body.p_csv);
}

TEST(ProtocolTest, RoundTripsQuestionWithPredicateWords) {
  QuestionBody body;
  body.session_id = 42;
  body.finished = 0;
  body.num_interactions = 7;
  body.class_id = 3;
  body.rep_r = 11;
  body.rep_p = 0xfffffffeu;
  body.predicate_words[0] = 0x8000000000000001ULL;
  body.predicate_words[3] = 0xf0f0f0f0f0f0f0f0ULL;
  auto decoded = DecodeQuestion(Encode(body));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->session_id, 42u);
  EXPECT_EQ(decoded->num_interactions, 7u);
  EXPECT_EQ(decoded->class_id, 3u);
  EXPECT_EQ(decoded->rep_r, 11u);
  EXPECT_EQ(decoded->rep_p, 0xfffffffeu);
  EXPECT_EQ(decoded->predicate_words[0], body.predicate_words[0]);
  EXPECT_EQ(decoded->predicate_words[3], body.predicate_words[3]);
}

TEST(ProtocolTest, OpenOkCarriesTheFirstQuestionInTheQuestionLayout) {
  OpenOkBody body;
  body.session_id = 42;
  body.num_classes = 18;
  body.num_tuples = 64;
  body.index_tier = 2;
  body.question.session_id = 42;
  body.question.class_id = 5;
  body.question.rep_r = 3;
  body.question.rep_p = 1;
  body.question.predicate_words[1] = 0x0102030405060708ULL;
  const std::vector<uint8_t> wire = Encode(body);
  auto decoded = DecodeOpenOk(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->session_id, 42u);
  EXPECT_EQ(decoded->num_classes, 18u);
  EXPECT_EQ(decoded->num_tuples, 64u);
  EXPECT_EQ(decoded->index_tier, 2u);
  EXPECT_EQ(decoded->question.finished, 0u);
  EXPECT_EQ(decoded->question.class_id, 5u);
  EXPECT_EQ(decoded->question.rep_r, 3u);
  EXPECT_EQ(decoded->question.rep_p, 1u);
  EXPECT_EQ(decoded->question.predicate_words[1],
            body.question.predicate_words[1]);
  // The open fields come first; the rest is a kQuestion body, byte for
  // byte.
  const std::vector<uint8_t> question = Encode(body.question);
  ASSERT_GT(wire.size(), question.size());
  EXPECT_TRUE(std::equal(question.begin(), question.end(),
                         wire.end() - static_cast<std::ptrdiff_t>(
                                          question.size())));
}

TEST(ProtocolTest, RoundTripsError) {
  ErrorBody err;
  err.code = static_cast<uint32_t>(util::StatusCode::kResourceExhausted);
  err.flags = kErrorFlagRetryLater;
  err.message = "server overloaded";
  auto e = DecodeError(Encode(err));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->code, err.code);
  EXPECT_EQ(e->flags, kErrorFlagRetryLater);
  EXPECT_EQ(e->message, err.message);
}

TEST(ProtocolTest, RoundTripsMetricsOkText) {
  MetricsOkBody body;
  body.text =
      "# TYPE jinfer_server_frames_read_total counter\n"
      "jinfer_server_frames_read_total 9\n";
  auto decoded = DecodeMetricsOk(Encode(body));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->text, body.text);
  EXPECT_TRUE(Encode(MetricsBody{}).empty());
}

TEST(ProtocolTest, DecodersRejectTruncatedAndTrailingBytes) {
  // Every body, with each field present: its decoder accepts the encoding
  // and rejects every strict prefix of it and one trailing byte.
  OpenSessionBody open;
  open.strategy = "TD";
  open.r_name = "R";
  open.p_name = "P";
  open.r_csv = "A\n1\n";
  open.p_csv = "B\n1\n";
  QuestionBody question;
  question.session_id = 42;
  question.rep_r = 1;
  question.rep_p = 2;
  OpenOkBody open_ok{42, 3, 9, 1};
  open_ok.question = question;
  ErrorBody error;
  error.message = "refused";
  MetricsOkBody metrics_ok;
  metrics_ok.text = "x 1\n";

  struct Case {
    const char* name;
    std::vector<uint8_t> wire;
    std::function<bool(std::span<const uint8_t>)> decodes;
  };
  auto ok = [](auto decode) {
    return [decode](std::span<const uint8_t> bytes) {
      return decode(bytes).ok();
    };
  };
  const std::vector<Case> cases = {
      {"OpenSession", Encode(open), ok(DecodeOpenSession)},
      {"OpenOk", Encode(open_ok), ok(DecodeOpenOk)},
      {"NextQuestion", Encode(NextQuestionBody{42}), ok(DecodeNextQuestion)},
      {"Question", Encode(question), ok(DecodeQuestion)},
      {"Answer", Encode(AnswerBody{42, 1}), ok(DecodeAnswer)},
      {"CloseSession", Encode(CloseSessionBody{42}), ok(DecodeCloseSession)},
      {"CloseOk", Encode(CloseOkBody{42, 5}), ok(DecodeCloseOk)},
      {"Metrics", Encode(MetricsBody{}), ok(DecodeMetrics)},
      {"MetricsOk", Encode(metrics_ok), ok(DecodeMetricsOk)},
      {"Error", Encode(error), ok(DecodeError)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.decodes(c.wire));
    for (size_t n = 0; n < c.wire.size(); ++n) {
      EXPECT_FALSE(c.decodes(std::span<const uint8_t>(c.wire.data(), n)))
          << "prefix " << n;
    }
    std::vector<uint8_t> extra = c.wire;
    extra.push_back(0);
    EXPECT_FALSE(c.decodes(extra));
  }
}

TEST(ProtocolTest, PredicateWordsRoundTrip) {
  core::JoinPredicate predicate;
  predicate.Set(0);
  predicate.Set(63);
  predicate.Set(64);
  predicate.Set(200);
  uint64_t words[4];
  PredicateToWords(predicate, words);
  EXPECT_EQ(PredicateFromWords(words), predicate);
}

}  // namespace
}  // namespace server
}  // namespace jinfer
