#include "server/client.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/string_util.h"

namespace jinfer {
namespace server {

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
    // An error frame names an error: a code past the taxonomy (a newer
    // peer's) or 0 reads as kIoError rather than misclassify.
    using util::StatusCode;
    const bool known =
        err->code >= 1 &&
        err->code <= static_cast<uint32_t>(StatusCode::kResourceExhausted);
    return util::Status(known ? static_cast<StatusCode>(err->code)
                              : StatusCode::kIoError,
                        std::move(err->message));
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
