#include "server/client.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/string_util.h"

namespace jinfer {
namespace server {

namespace {

/// Rebuilds a Status from its wire encoding. Unknown codes (a newer peer)
/// degrade to kIoError rather than misclassify.
util::Status StatusFromWire(uint32_t code, std::string message) {
  using util::Status;
  using util::StatusCode;
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kInconsistentSample:
      return Status::InconsistentSample(std::move(message));
    case StatusCode::kCapacityExceeded:
      return Status::CapacityExceeded(std::move(message));
    case StatusCode::kIoError:
      return Status::IoError(std::move(message));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
  }
  return Status::IoError(std::move(message));
}

}  // namespace

bool RetryLater(const util::Status& status) {
  // The server sets kErrorFlagRetryLater exactly for these two codes
  // (server.cc RetryFlagFor), so the taxonomy carries the flag for free —
  // no side channel needed once the error is a Status again.
  return status.code() == util::StatusCode::kResourceExhausted ||
         status.code() == util::StatusCode::kUnavailable;
}

util::Result<Client> Client::Connect(const std::string& host,
                                     uint16_t port) {
  return Connect(host, port, Options{});
}

util::Result<Client> Client::Connect(const std::string& host, uint16_t port,
                                     Options options) {
  JINFER_ASSIGN_OR_RETURN(util::Socket sock, util::ConnectTcp(host, port));
  if (options.io_timeout.count() > 0) {
    JINFER_RETURN_NOT_OK(util::SetIoTimeout(sock, options.io_timeout));
  }
  return Client(std::move(sock), options);
}

util::Result<Frame> Client::ReadResponse() {
  uint8_t header_bytes[kFrameHeaderBytes];
  JINFER_RETURN_NOT_OK(
      util::ReadExact(sock_, std::span<uint8_t>(header_bytes)));
  JINFER_ASSIGN_OR_RETURN(
      FrameHeader header,
      DecodeFrameHeader(std::span<const uint8_t>(header_bytes),
                        options_.max_frame_payload));
  std::vector<uint8_t> payload(header.payload_bytes);
  if (!payload.empty()) {
    JINFER_RETURN_NOT_OK(
        util::ReadExact(sock_, std::span<uint8_t>(payload)));
  }
  return DecodeFramePayload(header, payload);
}

util::Result<Frame> Client::RoundTrip(FrameType type,
                                      std::span<const uint8_t> payload) {
  const std::vector<uint8_t> wire = EncodeFrame(type, payload);
  JINFER_RETURN_NOT_OK(util::WriteAll(sock_, wire));
  JINFER_ASSIGN_OR_RETURN(Frame response, ReadResponse());
  if (response.type == FrameType::kError) {
    JINFER_ASSIGN_OR_RETURN(ErrorBody err, DecodeError(response.payload));
    return StatusFromWire(err.code, std::move(err.message));
  }
  return response;
}

namespace {

util::Status WrongResponse(FrameType got, FrameType want) {
  return util::Status::ParseError(
      util::StrFormat("expected %s response, got %s", FrameTypeName(want),
                      FrameTypeName(got)));
}

}  // namespace

util::Result<OpenOkBody> Client::OpenSession(const OpenSessionBody& body) {
  JINFER_ASSIGN_OR_RETURN(
      Frame response, RoundTrip(FrameType::kOpenSession, Encode(body)));
  if (response.type != FrameType::kOpenOk) {
    return WrongResponse(response.type, FrameType::kOpenOk);
  }
  JINFER_ASSIGN_OR_RETURN(OpenOkBody ok, DecodeOpenOk(response.payload));
  question_ = ok.question;
  return ok;
}

util::Result<QuestionBody> Client::NextQuestion() {
  if (!question_) return util::Status::FailedPrecondition("no session open");
  return *question_;
}

util::Result<QuestionBody> Client::Answer(bool positive) {
  if (!question_ || question_->finished) {
    return util::Status::FailedPrecondition(
        "Answer with no pending question");
  }
  AnswerBody req;
  req.session_id = question_->session_id;
  req.label = positive ? 1 : 0;
  JINFER_ASSIGN_OR_RETURN(Frame response,
                          RoundTrip(FrameType::kAnswer, Encode(req)));
  if (response.type != FrameType::kQuestion) {
    return WrongResponse(response.type, FrameType::kQuestion);
  }
  JINFER_ASSIGN_OR_RETURN(QuestionBody next, DecodeQuestion(response.payload));
  question_ = next;
  return next;
}

util::Result<CloseOkBody> Client::CloseSession() {
  if (!question_) return util::Status::FailedPrecondition("no session open");
  CloseOkBody ok;
  if (question_->finished) {
    // The server ended the session when it sent this question.
    ok.session_id = question_->session_id;
    ok.num_interactions = question_->num_interactions;
    std::copy(std::begin(question_->predicate_words),
              std::end(question_->predicate_words), ok.predicate_words);
  } else {
    CloseSessionBody req;
    req.session_id = question_->session_id;
    JINFER_ASSIGN_OR_RETURN(
        Frame response, RoundTrip(FrameType::kCloseSession, Encode(req)));
    if (response.type != FrameType::kCloseOk) {
      return WrongResponse(response.type, FrameType::kCloseOk);
    }
    JINFER_ASSIGN_OR_RETURN(ok, DecodeCloseOk(response.payload));
  }
  question_.reset();
  return ok;
}

util::Result<MetricsOkBody> Client::ServerMetrics() {
  JINFER_ASSIGN_OR_RETURN(
      Frame response, RoundTrip(FrameType::kMetrics, Encode(MetricsBody{})));
  if (response.type != FrameType::kMetricsOk) {
    return WrongResponse(response.type, FrameType::kMetricsOk);
  }
  return DecodeMetricsOk(response.payload);
}

}  // namespace server
}  // namespace jinfer
