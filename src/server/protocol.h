// Message bodies of the binary session protocol (DESIGN.md §11.1): the
// typed payloads that travel inside frames (frame.h), one struct + encode /
// decode pair per frame type.
//
// The session vocabulary is exactly the step API's, fused so that one
// interaction costs one round trip: OpenSession names the instance (the
// client uploads both relations as CSV text — the server fingerprints
// them, so repeated opens of the same data share one index through the
// tiered IndexCache, and it recognises a byte-identical repeat upload by
// a digest of its bytes, which skips the parse and the fingerprint) and
// its OpenOk carries the first question; Answer
// applies one label and is answered with the next question. A question is
// the strategy's pick as a class id plus its representative row numbers in
// R and P, or, once the inference is done, a finished question carrying
// the final predicate and interaction count of a session the server has
// already ended. NextQuestion re-asks the pending question (idempotent);
// CloseSession ends a session early and returns its predicate so far.
// Hypotheses travel as raw predicate words. The client holds R and P, so
// it renders the tuples and formats the predicate over Ω itself.
// Session ids are opaque u64 handles drawn from the hosting runtime and
// validated per connection: a frame naming a session the connection does
// not own is a protocol error, so one tenant can never touch another's
// transcript.
//
// ErrorBody carries the library's StatusCode taxonomy onto the wire plus
// two flags: kErrorFlagRetryLater marks the codes RetryLater accepts, load
// shedding (kResourceExhausted) and transient faults (kUnavailable) — the
// server is refusing, not failing; try again later — and
// kErrorFlagWillClose warns that the server closes the connection after
// this frame (malformed input, deadline expiry).
//
// Decoders consume their payload exactly (WireReader::Finish), so every
// trailing-garbage or truncated-field shape is a ParseError — fed by the
// malformed-frame corpus in tests/server/frame_codec_test.cc.

#ifndef JINFER_SERVER_PROTOCOL_H_
#define JINFER_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "server/frame.h"
#include "util/result.h"

namespace jinfer {
namespace server {

struct OpenSessionBody {
  std::string strategy;  ///< Paper abbreviation: BU, TD, L1S, L2S, RND, EG.
  uint64_t seed = 0;     ///< RNG seed (only the RND strategy consumes it).
  uint8_t compress = 1;  ///< Build the index with signature compression.
  std::string r_name, p_name;  ///< Relation names (fingerprinted).
  std::string r_csv, p_csv;    ///< The instance, as CSV text.
};

struct NextQuestionBody {
  uint64_t session_id = 0;
};

struct QuestionBody {
  uint64_t session_id = 0;
  /// 1: no question follows. The server has ended the session; the
  /// predicate words and the count below are its final result.
  uint8_t finished = 0;
  uint64_t num_interactions = 0;  ///< Questions answered so far.
  uint32_t class_id = 0;
  uint32_t rep_r = 0, rep_p = 0;  ///< The class's representative rows.
  /// Current hypothesis T(S+) (PredicateFromWords).
  uint64_t predicate_words[4] = {0, 0, 0, 0};
};

struct OpenOkBody {
  uint64_t session_id = 0;
  uint64_t num_classes = 0;
  uint64_t num_tuples = 0;
  uint8_t index_tier = 0;  ///< runtime::IndexTier of the serving index.
  /// The first question, in the kQuestion body's layout. Finished when
  /// the instance has no informative class: the session is already over.
  QuestionBody question;
};

struct AnswerBody {
  uint64_t session_id = 0;
  uint8_t label = 0;  ///< 1 = positive, 0 = negative.
};

struct CloseSessionBody {
  uint64_t session_id = 0;
};

struct CloseOkBody {
  uint64_t session_id = 0;
  uint64_t num_interactions = 0;
  uint64_t predicate_words[4] = {0, 0, 0, 0};
};

struct MetricsBody {};  ///< Metrics request carries no fields.

/// Full Prometheus text exposition of the server process's registry —
/// what a scraper or `interactive_cli --connect` pulls while sessions run.
struct MetricsOkBody {
  std::string text;
};

inline constexpr uint8_t kErrorFlagRetryLater = 1u << 0;
inline constexpr uint8_t kErrorFlagWillClose = 1u << 1;

/// True for a refusal to retry with backoff: load shedding
/// (kResourceExhausted) or a transient fault (kUnavailable). The server
/// sets kErrorFlagRetryLater by this one rule, so a client reads the flag
/// back from the code.
bool RetryLater(const util::Status& status);

struct ErrorBody {
  uint32_t code = 0;  ///< util::StatusCode, numerically.
  uint8_t flags = 0;  ///< kErrorFlag* bits.
  std::string message;
};

// Encoders return the payload bytes (frame framing is EncodeFrame's job);
// decoders parse a payload span exactly or fail with ParseError.
std::vector<uint8_t> Encode(const OpenSessionBody& body);
std::vector<uint8_t> Encode(const OpenOkBody& body);
std::vector<uint8_t> Encode(const NextQuestionBody& body);
std::vector<uint8_t> Encode(const QuestionBody& body);
std::vector<uint8_t> Encode(const AnswerBody& body);
std::vector<uint8_t> Encode(const CloseSessionBody& body);
std::vector<uint8_t> Encode(const CloseOkBody& body);
std::vector<uint8_t> Encode(const MetricsBody& body);
std::vector<uint8_t> Encode(const MetricsOkBody& body);
std::vector<uint8_t> Encode(const ErrorBody& body);

util::Result<OpenSessionBody> DecodeOpenSession(
    std::span<const uint8_t> payload);
util::Result<OpenOkBody> DecodeOpenOk(std::span<const uint8_t> payload);
util::Result<NextQuestionBody> DecodeNextQuestion(
    std::span<const uint8_t> payload);
util::Result<QuestionBody> DecodeQuestion(std::span<const uint8_t> payload);
util::Result<AnswerBody> DecodeAnswer(std::span<const uint8_t> payload);
util::Result<CloseSessionBody> DecodeCloseSession(
    std::span<const uint8_t> payload);
util::Result<CloseOkBody> DecodeCloseOk(std::span<const uint8_t> payload);
util::Result<MetricsBody> DecodeMetrics(std::span<const uint8_t> payload);
util::Result<MetricsOkBody> DecodeMetricsOk(
    std::span<const uint8_t> payload);
util::Result<ErrorBody> DecodeError(std::span<const uint8_t> payload);

/// Packs / unpacks a JoinPredicate into the four wire words.
void PredicateToWords(const core::JoinPredicate& predicate,
                      uint64_t words[4]);
core::JoinPredicate PredicateFromWords(const uint64_t words[4]);

}  // namespace server
}  // namespace jinfer

#endif  // JINFER_SERVER_PROTOCOL_H_
