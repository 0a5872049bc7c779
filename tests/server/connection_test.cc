// Connection's input buffer over a socket pair: it holds about the frames
// it has buffered, never a read chunk per connection, and hands back what
// a large frame grew it to once that frame is served.

#include "server/connection.h"

#include <fcntl.h>
#include <sys/socket.h>

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/frame.h"
#include "server/protocol.h"
#include "util/socket.h"

namespace jinfer {
namespace server {
namespace {

/// Reads until `conn` assembles a frame, for up to 5 s.
util::Result<Frame> ReadFrame(Connection& conn) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    JINFER_ASSIGN_OR_RETURN(Connection::ReadEvent ev, conn.OnReadable());
    if (ev.kind == Connection::ReadEvent::kFrame) return std::move(ev.frame);
    if (ev.kind == Connection::ReadEvent::kPeerClosed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return util::Status::DeadlineExceeded("no frame assembled");
}

TEST(ConnectionTest, InputBufferHoldsAboutOneFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::Socket peer(fds[0]);
  ASSERT_EQ(::fcntl(fds[1], F_SETFL, O_NONBLOCK), 0);
  Connection conn(util::Socket(fds[1]), /*generation=*/1, ConnectionLimits{});

  const std::vector<uint8_t> small =
      EncodeFrame(FrameType::kMetrics, Encode(MetricsBody{}));
  ASSERT_TRUE(util::WriteAll(peer, small).ok());
  auto frame = ReadFrame(conn);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kMetrics);
  // About one frame, not the 64 KiB read chunk.
  EXPECT_GE(conn.input_capacity(), small.size());
  EXPECT_LE(conn.input_capacity(), 2 * small.size());

  // A 1 MiB frame grows the buffer while it is assembled; once it is
  // served, the capacity beyond one read chunk goes back.
  const std::vector<uint8_t> large = EncodeFrame(
      FrameType::kOpenSession, std::vector<uint8_t>(1u << 20, 0x5a));
  std::thread writer([&] { EXPECT_TRUE(util::WriteAll(peer, large).ok()); });
  auto big = ReadFrame(conn);
  writer.join();
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(big->payload.size(), 1u << 20);
  EXPECT_FALSE(conn.has_buffered_input());
  EXPECT_LE(conn.input_capacity(), kReadChunk);
}

}  // namespace
}  // namespace server
}  // namespace jinfer
