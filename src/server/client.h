// Client: the thin blocking counterpart of the serving front end — one
// socket, one session, synchronous request/response frames (DESIGN.md
// §11.1). This is what `interactive_cli --connect host:port` runs, what
// the integration / chaos tests drive real round trips with, and the
// reference implementation for anyone speaking the protocol from another
// language.
//
// Callers drive the step API's loop — OpenSession, then NextQuestion /
// Answer until a question says finished, then CloseSession — and pay one
// round trip per interaction: the open's and each answer's reply carry
// the next question, which the client holds, so NextQuestion does no I/O.
// A finished question ends the session on the server, so CloseSession
// then builds its result from that question without a frame; it sends
// kCloseSession only to stop a session that is still running.
//
// Error frames decode back into the library's own Status taxonomy: the
// code travels numerically, so a server-side kResourceExhausted refusal
// IS kResourceExhausted here (a code outside the taxonomy's errors — a
// newer peer's, or 0 — reads as kIoError), and util::RetryCall composes
// with it the same way it composes with a local cache fault.
// RetryLater(status) (protocol.h) tells a caller whether the server said
// "again later" — the rule the server sets the RETRY_LATER flag by — as
// opposed to "you did something wrong".
//
// A resend on the same Client is safe only after an error the server
// sent: that request was refused and the stream is in step. Any other
// failure — a write or read error, an io_timeout expiry (kUnavailable,
// which RetryLater also accepts), a malformed or unexpected reply —
// leaves the request's fate unknown and its reply possibly still on the
// way, so the Client closes its socket and every later call fails at once
// with FailedPrecondition: reconnect, and open a new session.

#ifndef JINFER_SERVER_CLIENT_H_
#define JINFER_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "server/frame.h"
#include "server/protocol.h"
#include "util/result.h"
#include "util/socket.h"

namespace jinfer {
namespace server {

class Client {
 public:
  struct Options {
    /// Whole-call budget for each blocking read/write on the socket; an
    /// expiry surfaces as kUnavailable (transient, like the server's own
    /// taxonomy) and closes the connection. Zero = block forever.
    std::chrono::milliseconds io_timeout{10000};
  };

  /// Connects (blocking) to host:port.
  static util::Result<Client> Connect(const std::string& host, uint16_t port,
                                      Options options);
  static util::Result<Client> Connect(const std::string& host, uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Opens a session and holds its first question for the calls below.
  util::Result<OpenOkBody> OpenSession(const OpenSessionBody& body);

  /// The question the last open or answer delivered, with no I/O.
  /// finished=1 means the inference is done — follow with CloseSession for
  /// the final predicate. FailedPrecondition when no session is open.
  util::Result<QuestionBody> NextQuestion();

  /// Labels the pending question; the reply is the next question, which
  /// the client now holds. An error frame from the server
  /// (kInconsistentSample, a RETRY_LATER shed) leaves the question
  /// pending, and the answer may be resent; any other failure closes the
  /// connection (see the header comment). With no pending question it
  /// fails locally with FailedPrecondition and sends nothing.
  util::Result<QuestionBody> Answer(bool positive);

  /// Returns the final predicate + interaction count and forgets the
  /// session. A finished session already ended on the server, so its
  /// result comes from the finished question with no I/O; a running one
  /// is closed with a kCloseSession round trip.
  util::Result<CloseOkBody> CloseSession();

  /// The server's full Prometheus text exposition (no session required).
  util::Result<MetricsOkBody> ServerMetrics();

  /// The open session's id, or 0.
  uint64_t session_id() const {
    return question_ ? question_->session_id : 0;
  }
  const util::Socket& sock() const { return sock_; }

  /// The raw exchange: send one request frame, read one response frame.
  /// An kError response decodes into its carried Status. Exposed for the
  /// protocol tests (malformed-frame corpus, half-written frames).
  util::Result<Frame> RoundTrip(FrameType type,
                                std::span<const uint8_t> payload);

 private:
  Client(util::Socket sock, Options options)
      : sock_(std::move(sock)), options_(options) {}

  /// FailedPrecondition once an earlier failure closed the socket.
  util::Status Usable() const;
  /// Closes the socket and forgets the session after a transport or
  /// framing failure, so no late reply is ever read as the answer to a
  /// later request; returns `status`.
  util::Status Break(util::Status status);
  util::Result<Frame> ReadResponse();
  /// RoundTrip, then the reply decoded as a `want` frame's body.
  template <typename Body>
  util::Result<Body> Exchange(
      FrameType type, std::span<const uint8_t> payload, FrameType want,
      util::Result<Body> (*decode)(std::span<const uint8_t>));

  util::Socket sock_;
  Options options_;
  FrameAssembler in_;
  /// The open session's current question; empty when no session is open.
  std::optional<QuestionBody> question_;
};

}  // namespace server
}  // namespace jinfer

#endif  // JINFER_SERVER_CLIENT_H_
