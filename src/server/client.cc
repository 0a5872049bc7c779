#include "server/client.h"

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
  session_id_ = ok.session_id;
  return ok;
}

util::Result<QuestionBody> Client::NextQuestion() {
  NextQuestionBody req;
  req.session_id = session_id_;
  JINFER_ASSIGN_OR_RETURN(
      Frame response, RoundTrip(FrameType::kNextQuestion, Encode(req)));
  if (response.type != FrameType::kQuestion) {
    return WrongResponse(response.type, FrameType::kQuestion);
  }
  return DecodeQuestion(response.payload);
}

util::Result<AnswerOkBody> Client::Answer(bool positive) {
  AnswerBody req;
  req.session_id = session_id_;
  req.label = positive ? 1 : 0;
  JINFER_ASSIGN_OR_RETURN(Frame response,
                          RoundTrip(FrameType::kAnswer, Encode(req)));
  if (response.type != FrameType::kAnswerOk) {
    return WrongResponse(response.type, FrameType::kAnswerOk);
  }
  return DecodeAnswerOk(response.payload);
}

util::Result<CloseOkBody> Client::CloseSession() {
  CloseSessionBody req;
  req.session_id = session_id_;
  JINFER_ASSIGN_OR_RETURN(
      Frame response, RoundTrip(FrameType::kCloseSession, Encode(req)));
  if (response.type != FrameType::kCloseOk) {
    return WrongResponse(response.type, FrameType::kCloseOk);
  }
  JINFER_ASSIGN_OR_RETURN(CloseOkBody ok, DecodeCloseOk(response.payload));
  session_id_ = 0;
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
