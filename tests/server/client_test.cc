// The thin client against scripted fake servers: what a Client does after
// an exchange fails. A reply that arrives after its request timed out must
// never be read as the answer to a later request (DESIGN.md §11.3), and an
// error frame reaches the caller as the Status it carries.

#include "server/client.h"

#include <fcntl.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/frame.h"
#include "server/protocol.h"
#include "util/socket.h"

namespace jinfer {
namespace server {
namespace {

using std::chrono::milliseconds;

/// A one-connection fake server on an ephemeral loopback port that reads
/// request frames and answers request n (from 1) `delay` late with the
/// frame reply(n).
class FakeServer {
 public:
  using Reply = std::function<std::vector<uint8_t>(int request)>;

  FakeServer(milliseconds delay, Reply reply) : reply_(std::move(reply)) {
    auto listener = util::ListenTcp("127.0.0.1", 0);
    JINFER_CHECK(listener.ok(), "listen failed");
    listener_ = std::move(listener).ValueOrDie();
    auto port = util::BoundPort(listener_);
    JINFER_CHECK(port.ok(), "no port");
    port_ = *port;
    thread_ = std::thread([this, delay] { Serve(delay); });
  }
  ~FakeServer() { thread_.join(); }

  uint16_t port() const { return port_; }

 private:
  void Serve(milliseconds delay) {
    util::Socket conn;
    const auto give_up = std::chrono::steady_clock::now() + milliseconds(5000);
    while (!conn.valid() && std::chrono::steady_clock::now() < give_up) {
      auto accepted = util::AcceptTcp(listener_);
      if (accepted.ok()) {
        conn = std::move(accepted).ValueOrDie();
      } else {
        std::this_thread::sleep_for(milliseconds(1));
      }
    }
    if (!conn.valid()) return;
    // Blocking reads, bounded, so the thread ends once the client is gone.
    ::fcntl(conn.fd(), F_SETFL, ::fcntl(conn.fd(), F_GETFL) & ~O_NONBLOCK);
    if (!util::SetIoTimeout(conn, milliseconds(2000)).ok()) return;
    for (int request = 1;; ++request) {
      uint8_t header_bytes[kFrameHeaderBytes];
      if (!util::ReadExact(conn, std::span<uint8_t>(header_bytes)).ok()) {
        return;
      }
      auto header = DecodeFrameHeader(std::span<const uint8_t>(header_bytes));
      if (!header.ok()) return;
      std::vector<uint8_t> payload(header->payload_bytes);
      if (!util::ReadExact(conn, std::span<uint8_t>(payload)).ok()) return;
      std::this_thread::sleep_for(delay);
      // The client may have hung up by now; a failed write ends nothing.
      (void)util::WriteAll(conn, reply_(request));
    }
  }

  Reply reply_;
  util::Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientTest, TimedOutExchangeClosesTheConnection) {
  // Each reply names its request ("reply-to-request-<n>").
  FakeServer server(milliseconds(200), [](int request) {
    MetricsOkBody reply;
    reply.text = "reply-to-request-" + std::to_string(request);
    return EncodeFrame(FrameType::kMetricsOk, Encode(reply));
  });
  Client::Options options;
  options.io_timeout = milliseconds(50);
  auto client = Client::Connect("127.0.0.1", server.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto first = client->ServerMetrics();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), util::StatusCode::kUnavailable);

  // By now the late reply to the first request has arrived. Reading it as
  // the reply to a second request would hand a caller the wrong answer —
  // for Answer, a label applied to the wrong question. The client refuses
  // instead, without touching the socket.
  std::this_thread::sleep_for(milliseconds(300));
  auto second = client->ServerMetrics();
  ASSERT_FALSE(second.ok()) << "read a stale reply: " << second->text;
  EXPECT_EQ(second.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(client->sock().valid());
  EXPECT_EQ(client->NextQuestion().status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(client->Answer(true).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(ClientTest, EveryStatusCodeCrossesTheWire) {
  // The code travels as a number: each of the taxonomy's codes reaches the
  // caller as itself, with its message, and the connection stays usable
  // (the server refused the request; the stream is in step). A code past
  // the taxonomy (a newer peer's) and 0, which names no error, read as
  // kIoError.
  using util::StatusCode;
  struct Case {
    uint32_t wire;
    StatusCode want;
  };
  std::vector<Case> cases;
  for (uint32_t code = 1;
       code <= static_cast<uint32_t>(StatusCode::kResourceExhausted); ++code) {
    cases.push_back({code, static_cast<StatusCode>(code)});
  }
  cases.push_back({999, StatusCode::kIoError});
  cases.push_back({0, StatusCode::kIoError});
  FakeServer server(milliseconds(0), [&cases](int request) {
    ErrorBody err;
    err.code = cases[static_cast<size_t>(request - 1)].wire;
    err.message = "error-" + std::to_string(request);
    return EncodeFrame(FrameType::kError, Encode(err));
  });
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (size_t i = 0; i < cases.size(); ++i) {
    auto reply = client->ServerMetrics();
    ASSERT_FALSE(reply.ok()) << "wire code " << cases[i].wire;
    EXPECT_EQ(reply.status().code(), cases[i].want)
        << "wire code " << cases[i].wire;
    EXPECT_EQ(reply.status().message(), "error-" + std::to_string(i + 1));
    EXPECT_EQ(RetryLater(reply.status()),
              cases[i].want == StatusCode::kUnavailable ||
                  cases[i].want == StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(client->sock().valid());
}

}  // namespace
}  // namespace server
}  // namespace jinfer
