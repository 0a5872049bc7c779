#include "server/protocol.h"

#include <bit>
#include <utility>

namespace jinfer {
namespace server {

namespace {

void PutWords(WireWriter& w, const uint64_t words[4]) {
  for (int i = 0; i < 4; ++i) w.U64(words[i]);
}

util::Status GetWords(WireReader& r, uint64_t words[4]) {
  for (int i = 0; i < 4; ++i) {
    JINFER_ASSIGN_OR_RETURN(words[i], r.U64());
  }
  return util::Status::OK();
}

// The one wire layout of a question: the kQuestion body, and the tail of
// the OpenOk body.
void PutQuestion(WireWriter& w, const QuestionBody& q) {
  w.U64(q.session_id);
  w.U8(q.finished);
  w.U64(q.num_interactions);
  w.U32(q.class_id);
  w.U32(q.rep_r);
  w.U32(q.rep_p);
  PutWords(w, q.predicate_words);
}

util::Status GetQuestion(WireReader& r, QuestionBody& q) {
  JINFER_ASSIGN_OR_RETURN(q.session_id, r.U64());
  JINFER_ASSIGN_OR_RETURN(q.finished, r.U8());
  JINFER_ASSIGN_OR_RETURN(q.num_interactions, r.U64());
  JINFER_ASSIGN_OR_RETURN(q.class_id, r.U32());
  JINFER_ASSIGN_OR_RETURN(q.rep_r, r.U32());
  JINFER_ASSIGN_OR_RETURN(q.rep_p, r.U32());
  return GetWords(r, q.predicate_words);
}

}  // namespace

void PredicateToWords(const core::JoinPredicate& predicate,
                      uint64_t words[4]) {
  for (size_t i = 0; i < core::JoinPredicate::kWords; ++i) {
    words[i] = predicate.word(i);
  }
}

core::JoinPredicate PredicateFromWords(const uint64_t words[4]) {
  core::JoinPredicate predicate;
  for (size_t w = 0; w < core::JoinPredicate::kWords; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      predicate.Set(w * 64 + static_cast<size_t>(bit));
      bits &= bits - 1;
    }
  }
  return predicate;
}

std::vector<uint8_t> Encode(const OpenSessionBody& body) {
  WireWriter w;
  w.Str(body.strategy);
  w.U64(body.seed);
  w.U8(body.compress);
  w.Str(body.r_name);
  w.Str(body.p_name);
  w.Str(body.r_csv);
  w.Str(body.p_csv);
  return std::move(w).Take();
}

util::Result<OpenSessionBody> DecodeOpenSession(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  OpenSessionBody body;
  JINFER_ASSIGN_OR_RETURN(body.strategy, r.Str());
  JINFER_ASSIGN_OR_RETURN(body.seed, r.U64());
  JINFER_ASSIGN_OR_RETURN(body.compress, r.U8());
  JINFER_ASSIGN_OR_RETURN(body.r_name, r.Str());
  JINFER_ASSIGN_OR_RETURN(body.p_name, r.Str());
  JINFER_ASSIGN_OR_RETURN(body.r_csv, r.Str());
  JINFER_ASSIGN_OR_RETURN(body.p_csv, r.Str());
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const OpenOkBody& body) {
  WireWriter w;
  w.U64(body.session_id);
  w.U64(body.num_classes);
  w.U64(body.num_tuples);
  w.U8(body.index_tier);
  PutQuestion(w, body.question);
  return std::move(w).Take();
}

util::Result<OpenOkBody> DecodeOpenOk(std::span<const uint8_t> payload) {
  WireReader r(payload);
  OpenOkBody body;
  JINFER_ASSIGN_OR_RETURN(body.session_id, r.U64());
  JINFER_ASSIGN_OR_RETURN(body.num_classes, r.U64());
  JINFER_ASSIGN_OR_RETURN(body.num_tuples, r.U64());
  JINFER_ASSIGN_OR_RETURN(body.index_tier, r.U8());
  JINFER_RETURN_NOT_OK(GetQuestion(r, body.question));
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const NextQuestionBody& body) {
  WireWriter w;
  w.U64(body.session_id);
  return std::move(w).Take();
}

util::Result<NextQuestionBody> DecodeNextQuestion(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  NextQuestionBody body;
  JINFER_ASSIGN_OR_RETURN(body.session_id, r.U64());
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const QuestionBody& body) {
  WireWriter w;
  PutQuestion(w, body);
  return std::move(w).Take();
}

util::Result<QuestionBody> DecodeQuestion(std::span<const uint8_t> payload) {
  WireReader r(payload);
  QuestionBody body;
  JINFER_RETURN_NOT_OK(GetQuestion(r, body));
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const AnswerBody& body) {
  WireWriter w;
  w.U64(body.session_id);
  w.U8(body.label);
  return std::move(w).Take();
}

util::Result<AnswerBody> DecodeAnswer(std::span<const uint8_t> payload) {
  WireReader r(payload);
  AnswerBody body;
  JINFER_ASSIGN_OR_RETURN(body.session_id, r.U64());
  JINFER_ASSIGN_OR_RETURN(body.label, r.U8());
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const CloseSessionBody& body) {
  WireWriter w;
  w.U64(body.session_id);
  return std::move(w).Take();
}

util::Result<CloseSessionBody> DecodeCloseSession(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  CloseSessionBody body;
  JINFER_ASSIGN_OR_RETURN(body.session_id, r.U64());
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const CloseOkBody& body) {
  WireWriter w;
  w.U64(body.session_id);
  w.U64(body.num_interactions);
  PutWords(w, body.predicate_words);
  return std::move(w).Take();
}

util::Result<CloseOkBody> DecodeCloseOk(std::span<const uint8_t> payload) {
  WireReader r(payload);
  CloseOkBody body;
  JINFER_ASSIGN_OR_RETURN(body.session_id, r.U64());
  JINFER_ASSIGN_OR_RETURN(body.num_interactions, r.U64());
  JINFER_RETURN_NOT_OK(GetWords(r, body.predicate_words));
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

std::vector<uint8_t> Encode(const MetricsBody&) { return {}; }

util::Result<MetricsBody> DecodeMetrics(std::span<const uint8_t> payload) {
  WireReader r(payload);
  JINFER_RETURN_NOT_OK(r.Finish());
  return MetricsBody{};
}

std::vector<uint8_t> Encode(const MetricsOkBody& body) {
  WireWriter w;
  w.Str(body.text);
  return std::move(w).Take();
}

util::Result<MetricsOkBody> DecodeMetricsOk(
    std::span<const uint8_t> payload) {
  WireReader r(payload);
  MetricsOkBody body;
  JINFER_ASSIGN_OR_RETURN(body.text, r.Str());
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

bool RetryLater(const util::Status& status) {
  return status.code() == util::StatusCode::kResourceExhausted ||
         status.code() == util::StatusCode::kUnavailable;
}

std::vector<uint8_t> Encode(const ErrorBody& body) {
  WireWriter w;
  w.U32(body.code);
  w.U8(body.flags);
  w.Str(body.message);
  return std::move(w).Take();
}

util::Result<ErrorBody> DecodeError(std::span<const uint8_t> payload) {
  WireReader r(payload);
  ErrorBody body;
  JINFER_ASSIGN_OR_RETURN(body.code, r.U32());
  JINFER_ASSIGN_OR_RETURN(body.flags, r.U8());
  JINFER_ASSIGN_OR_RETURN(body.message, r.Str());
  JINFER_RETURN_NOT_OK(r.Finish());
  return body;
}

}  // namespace server
}  // namespace jinfer
