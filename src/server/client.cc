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

util::Status Client::Usable() const {
  if (sock_.valid()) return util::Status::OK();
  return util::Status::FailedPrecondition(
      "the connection failed on an earlier call; reconnect");
}

util::Status Client::Break(util::Status status) {
  sock_.Close();
  question_.reset();
  return status;
}

util::Result<Frame> Client::ReadResponse() {
  while (true) {
    JINFER_ASSIGN_OR_RETURN(const bool ready, in_.Ready());
    if (ready) return in_.Pop();
    uint8_t chunk[kReadChunk];
    JINFER_ASSIGN_OR_RETURN(const size_t n,
                            util::ReadSome(sock_, std::span<uint8_t>(chunk)));
    if (n == 0) {
      return util::Status::IoError("connection closed by the server");
    }
    in_.Append(std::span<const uint8_t>(chunk, n));
  }
}

util::Result<Frame> Client::RoundTrip(FrameType type,
                                      std::span<const uint8_t> payload) {
  JINFER_RETURN_NOT_OK(Usable());
  const std::vector<uint8_t> wire = EncodeFrame(type, payload);
  if (util::Status sent = util::WriteAll(sock_, wire); !sent.ok()) {
    return Break(std::move(sent));
  }
  util::Result<Frame> response = ReadResponse();
  if (!response.ok()) return Break(response.status());
  if (response->type == FrameType::kError) {
    util::Result<ErrorBody> err = DecodeError(response->payload);
    if (!err.ok()) return Break(err.status());
    return StatusFromWire(err->code, std::move(err->message));
  }
  return response;
}

template <typename Body>
util::Result<Body> Client::Exchange(
    FrameType type, std::span<const uint8_t> payload, FrameType want,
    util::Result<Body> (*decode)(std::span<const uint8_t>)) {
  JINFER_ASSIGN_OR_RETURN(Frame response, RoundTrip(type, payload));
  if (response.type != want) {
    return Break(util::Status::ParseError(
        util::StrFormat("expected %s response, got %s", FrameTypeName(want),
                        FrameTypeName(response.type))));
  }
  util::Result<Body> body = decode(response.payload);
  if (!body.ok()) return Break(body.status());
  return body;
}

util::Result<OpenOkBody> Client::OpenSession(const OpenSessionBody& body) {
  JINFER_ASSIGN_OR_RETURN(OpenOkBody ok,
                          Exchange(FrameType::kOpenSession, Encode(body),
                                   FrameType::kOpenOk, &DecodeOpenOk));
  question_ = ok.question;
  return ok;
}

util::Result<QuestionBody> Client::NextQuestion() {
  JINFER_RETURN_NOT_OK(Usable());
  if (!question_) return util::Status::FailedPrecondition("no session open");
  return *question_;
}

util::Result<QuestionBody> Client::Answer(bool positive) {
  JINFER_RETURN_NOT_OK(Usable());
  if (!question_ || question_->finished) {
    return util::Status::FailedPrecondition(
        "Answer with no pending question");
  }
  AnswerBody req;
  req.session_id = question_->session_id;
  req.label = positive ? 1 : 0;
  JINFER_ASSIGN_OR_RETURN(QuestionBody next,
                          Exchange(FrameType::kAnswer, Encode(req),
                                   FrameType::kQuestion, &DecodeQuestion));
  question_ = next;
  return next;
}

util::Result<CloseOkBody> Client::CloseSession() {
  JINFER_RETURN_NOT_OK(Usable());
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
    JINFER_ASSIGN_OR_RETURN(ok, Exchange(FrameType::kCloseSession,
                                         Encode(req), FrameType::kCloseOk,
                                         &DecodeCloseOk));
  }
  question_.reset();
  return ok;
}

util::Result<MetricsOkBody> Client::ServerMetrics() {
  return Exchange(FrameType::kMetrics, Encode(MetricsBody{}),
                  FrameType::kMetricsOk, &DecodeMetricsOk);
}

}  // namespace server
}  // namespace jinfer
