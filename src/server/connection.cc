#include "server/connection.h"

#include <algorithm>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace jinfer {
namespace server {

util::Result<Connection::ReadEvent> Connection::OnReadable() {
  JINFER_RETURN_NOT_OK(util::FailpointHit("server.conn.read"));
  while (true) {
    // Assemble from what is already buffered before reading more.
    JINFER_ASSIGN_OR_RETURN(const bool ready, in_.Ready());
    if (ready) {
      static obs::Histogram& decode_nanos =
          obs::Registry::Global().histogram(obs::kServerFrameDecodeNanos);
      obs::ScopedSpan decode_span(obs::SpanKind::kFrameDecode, trace_id(),
                                  &decode_nanos);
      JINFER_RETURN_NOT_OK(util::FailpointHit("server.frame.decode"));
      JINFER_ASSIGN_OR_RETURN(Frame frame, in_.Pop());
      decode_span.set_detail(frame.payload.size());
      // The read deadline restarts per frame: cleared at a boundary,
      // re-armed when pipelined bytes of the next frame already sit here.
      // It pauses while a frame is in flight; OnWorkDone restarts it.
      if (in_.empty()) {
        in_.Trim(kReadChunk);
        frame_start_ = Clock::time_point{};
      } else {
        frame_start_ = Clock::now();
      }
      last_activity_ = Clock::now();
      ReadEvent ev;
      ev.kind = ReadEvent::kFrame;
      ev.frame = std::move(frame);
      return ev;
    }

    // Need more bytes. Read one chunk onto the stack (no zero-fill) and
    // keep only what arrived; EAGAIN means report no progress.
    uint8_t chunk[kReadChunk];
    auto n = util::ReadSome(sock_, std::span<uint8_t>(chunk));
    if (!n.ok()) {
      if (n.status().code() == util::StatusCode::kUnavailable) {
        return ReadEvent{};  // Would block — poll will call us back.
      }
      return n.status();  // kIoError: broken socket.
    }
    if (*n == 0) {
      // EOF. At a frame boundary it is an orderly close; inside a frame it
      // is a truncation the peer must hear about (the malformed-frame
      // corpus's mid-frame-EOF case).
      if (in_.empty()) {
        ReadEvent ev;
        ev.kind = ReadEvent::kPeerClosed;
        return ev;
      }
      return util::Status::ParseError("connection closed mid-frame");
    }
    in_.Append(std::span<const uint8_t>(chunk, *n));
    if (frame_start_ == Clock::time_point{}) frame_start_ = Clock::now();
  }
}

bool Connection::Enqueue(std::span<const uint8_t> bytes) {
  const size_t pending = out_.size() - out_pos_;
  if (pending + bytes.size() > limits_.write_buffer_cap) return false;
  if (pending == 0) {
    out_.clear();
    out_pos_ = 0;
    write_start_ = Clock::now();
  }
  out_.insert(out_.end(), bytes.begin(), bytes.end());
  return true;
}

util::Result<bool> Connection::OnWritable() {
  JINFER_RETURN_NOT_OK(util::FailpointHit("server.conn.write"));
  while (out_pos_ < out_.size()) {
    auto n = util::WriteSome(
        sock_, std::span<const uint8_t>(out_.data() + out_pos_,
                                        out_.size() - out_pos_));
    if (!n.ok()) {
      if (n.status().code() == util::StatusCode::kUnavailable) return false;
      return n.status();
    }
    out_pos_ += *n;
  }
  out_.clear();
  out_pos_ = 0;
  write_start_ = Clock::time_point{};
  last_activity_ = Clock::now();
  return true;
}

std::array<Connection::Deadline, 3> Connection::Deadlines() const {
  const auto armed = [](bool on, Clock::time_point start,
                        std::chrono::milliseconds budget) {
    return on && budget.count() > 0 ? start + budget
                                    : Clock::time_point::max();
  };
  return {{
      {armed(!busy_ && frame_start_ != Clock::time_point{}, frame_start_,
             limits_.read_deadline),
       "read deadline exceeded"},
      {armed(wants_write(), write_start_, limits_.write_deadline),
       "write deadline exceeded"},
      {armed(!busy_, last_activity_, limits_.idle_timeout),
       "idle timeout exceeded"},
  }};
}

Connection::Clock::time_point Connection::NextDeadline() const {
  auto earliest = Clock::time_point::max();
  for (const Deadline& d : Deadlines()) earliest = std::min(earliest, d.at);
  return earliest;
}

const char* Connection::ExpiredReason(Clock::time_point now) const {
  for (const Deadline& d : Deadlines()) {
    if (now >= d.at) return d.reason;
  }
  return nullptr;
}

}  // namespace server
}  // namespace jinfer
