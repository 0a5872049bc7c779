// Connection: the per-socket state machine of the serving front end
// (DESIGN.md §11.2).
//
// A connection assembles frames from a nonblocking socket (FrameAssembler,
// whose buffer holds about the frames in it), hands exactly one frame at a
// time to its handler — run in place on the event thread when its cost is
// bounded, on the worker pool otherwise (server.cc, RunsInline) — and
// drains response bytes back out, all driven by the server's poll loop,
// whose thread is the only one that touches this object. It is also the only owner of its session: the session leaves
// with a dispatched frame (BeginWork) and comes back with its completion
// (OnWorkDone) on either route, and it dies with the connection, which
// releases its IndexCache pin. The lifecycle hardening lives here:
//
//   read deadline   armed while a frame is partially received and no frame
//                   is in flight — a client that trickles a header one
//                   byte per minute is closed with kDeadlineExceeded, not
//                   allowed to hold a slot;
//   write deadline  armed while response bytes are pending — a client that
//                   stops reading is closed, not allowed to wedge a worker
//                   or grow the buffer;
//   idle timeout    armed between frames — an abandoned connection (client
//                   vanished mid-question) is closed, and its session with
//                   it;
//   write cap       Enqueue refuses to buffer past write_buffer_cap, the
//                   slow-client bound (kResourceExhausted close);
//   framing errors  every malformed shape surfaces as ParseError from
//                   OnReadable — the server answers with a typed error
//                   frame and closes; oversized length prefixes are
//                   rejected before any payload allocation (frame.h).
//
// The failpoints server.conn.read / server.conn.write / server.frame.decode
// fire at the exact syscall / decode edges and are treated as the injected
// equivalent of a broken socket — the connection dies, nothing else does
// (tests/chaos/server_chaos_test.cc).

#ifndef JINFER_SERVER_CONNECTION_H_
#define JINFER_SERVER_CONNECTION_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "runtime/session.h"
#include "server/frame.h"
#include "util/result.h"
#include "util/socket.h"

namespace jinfer {
namespace server {

/// The caps and budgets a connection enforces (set from ServerOptions).
struct ConnectionLimits {
  size_t write_buffer_cap = 4u << 20;
  std::chrono::milliseconds read_deadline{5000};
  std::chrono::milliseconds write_deadline{5000};
  std::chrono::milliseconds idle_timeout{60000};
};

class Connection {
 public:
  using Clock = std::chrono::steady_clock;

  Connection(util::Socket sock, uint64_t generation, ConnectionLimits limits)
      : sock_(std::move(sock)),
        generation_(generation),
        limits_(limits),
        last_activity_(Clock::now()) {}

  struct ReadEvent {
    enum Kind {
      kNoProgress,  ///< Nothing complete yet (would block, or mid-frame).
      kFrame,       ///< One complete, checksum-valid frame.
      kPeerClosed,  ///< Orderly EOF at a frame boundary.
    };
    Kind kind = kNoProgress;
    Frame frame;
  };

  /// Pulls bytes off the socket and assembles at most one frame. Errors:
  /// ParseError for any malformed framing (including EOF mid-frame) —
  /// answer with a typed error and close; kIoError for a broken socket or
  /// a tripped read/decode failpoint — close silently.
  util::Result<ReadEvent> OnReadable();

  /// Buffers an encoded frame for writing. False when the write-buffer cap
  /// would be exceeded (slow client) — the caller closes the connection.
  bool Enqueue(std::span<const uint8_t> bytes);

  /// Writes as much pending output as the socket accepts. Returns true
  /// when the buffer fully drained. kIoError on breakage or a tripped
  /// write failpoint.
  util::Result<bool> OnWritable();

  /// Poll interest.
  bool wants_read() const { return !busy_ && !close_after_flush_; }
  bool wants_write() const { return out_pos_ < out_.size(); }

  /// The earliest enforcement point among the armed deadlines, or
  /// time_point::max() when nothing is armed. `ExpiredReason` names the
  /// deadline that has passed by `now` (nullptr when none has); the event
  /// loop passes its round's one clock read.
  Clock::time_point NextDeadline() const;
  const char* ExpiredReason(Clock::time_point now) const;

  /// Marks a dispatched frame, inline or queued: reading pauses until
  /// OnWorkDone. The session (null if none is open) leaves with the frame.
  std::unique_ptr<runtime::Session> BeginWork() {
    busy_ = true;
    return std::move(session_);
  }
  /// The frame's completion arrived with the session (null once closed,
  /// new after an open); the caller enqueues the response. Bytes pipelined
  /// behind the frame restart the read deadline now, not while the server
  /// was working.
  void OnWorkDone(std::unique_ptr<runtime::Session> session) {
    busy_ = false;
    session_ = std::move(session);
    last_activity_ = Clock::now();
    frame_start_ = in_.empty() ? Clock::time_point{} : last_activity_;
  }

  /// Bytes of a next frame already read; poll will not report them again.
  bool has_buffered_input() const { return !in_.empty(); }
  /// Bytes of input buffer held: about the frames buffered, at most one
  /// read chunk once they drain.
  size_t input_capacity() const { return in_.capacity(); }

  /// After this, the connection flushes its buffer and is then closed by
  /// the server (no further reads are processed).
  void CloseAfterFlush() { close_after_flush_ = true; }
  bool close_after_flush() const { return close_after_flush_; }

  const util::Socket& sock() const { return sock_; }
  uint64_t generation() const { return generation_; }

  /// The session open here, or null (also while it is out with a frame).
  const runtime::Session* session() const { return session_.get(); }
  /// The session's trace id — its wire id — or 0.
  uint64_t trace_id() const { return session_ ? session_->trace_id() : 0; }

 private:
  /// One of the three deadlines: when it fires (time_point::max() while
  /// it is not armed) and the reason ExpiredReason reports for it.
  struct Deadline {
    Clock::time_point at;
    const char* reason;
  };

  /// The read, write and idle deadlines, in the order ExpiredReason
  /// checks them. The one statement of when each is armed.
  std::array<Deadline, 3> Deadlines() const;

  util::Socket sock_;
  uint64_t generation_;
  ConnectionLimits limits_;

  // Inbound: bytes read and not yet popped as frames.
  FrameAssembler in_;
  Clock::time_point frame_start_{};  ///< Set while a frame is partial.

  // Outbound: one flat buffer with a drain cursor; compacted when empty.
  std::vector<uint8_t> out_;
  size_t out_pos_ = 0;
  Clock::time_point write_start_{};  ///< Set while output is pending.

  Clock::time_point last_activity_;
  bool busy_ = false;
  bool close_after_flush_ = false;
  std::unique_ptr<runtime::Session> session_;
};

}  // namespace server
}  // namespace jinfer

#endif  // JINFER_SERVER_CONNECTION_H_
