// Frame codec for the serving front end's binary session protocol
// (DESIGN.md §11.1).
//
// Every message travels as one frame: a fixed little-endian header carrying
// magic / version / type / payload length, followed by the payload bytes,
// whose util::Checksum64 digest is stored in the header — the same
// magic + length + checksum discipline as the index file format
// (store/index_file.h), shrunk to a streamed unit:
//
//   [ FrameHeader ]   24 bytes: magic "JFRM", version, type, flags,
//                     payload_bytes, Checksum64 of the payload
//   [ payload ]       payload_bytes bytes, message-specific (protocol.h)
//
// Robustness contract: decoding is pure over byte spans and never trusts a
// length before validating it — an oversized or negative-looking
// payload_bytes is rejected *before* any allocation, so a hostile 4 GiB
// length prefix costs the server 24 bytes of reads, not 4 GiB of heap.
// Every malformed shape (bad magic, unsupported version, unknown type,
// oversized length, checksum mismatch) decodes to a distinct ParseError
// message; the connection layer answers with a typed error frame and
// closes (never a crash, never a wedged worker — tests/server/
// frame_codec_test.cc walks the corpus).
//
// WireReader / WireWriter are the payload primitives: bounds-checked
// little-endian scalars and u32-length-prefixed strings, mirroring the
// names-section idiom of the index file.

#ifndef JINFER_SERVER_FRAME_H_
#define JINFER_SERVER_FRAME_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace jinfer {
namespace server {

inline constexpr uint32_t kFrameMagic = 0x4d52464a;  // "JFRM" on LE.
/// A peer on any other version gets a typed ParseError; there is no
/// fallback path.
inline constexpr uint8_t kProtocolVersion = 3;

/// Hard ceiling on a frame payload. OpenSession carries CSV text, so the
/// bound is generous; anything larger is a protocol error by definition.
inline constexpr uint32_t kMaxFramePayload = 32u << 20;  // 32 MiB

/// Frame types. Requests are low numbers, responses have the high bit of
/// the low nibble region set (0x40) so a stray request/response swap is an
/// immediate protocol error rather than a misparse.
enum class FrameType : uint8_t {
  // Client → server.
  kOpenSession = 0x01,
  kNextQuestion = 0x02,
  kAnswer = 0x03,
  kCloseSession = 0x04,
  kMetrics = 0x06,
  // Server → client.
  kOpenOk = 0x41,
  kQuestion = 0x42,  ///< Answers kNextQuestion and kAnswer.
  kCloseOk = 0x44,
  kError = 0x46,
  kMetricsOk = 0x47,
};

/// True for the types a client may send.
bool IsRequestType(uint8_t type);
/// True for any defined type (request or response).
bool IsKnownFrameType(uint8_t type);
const char* FrameTypeName(FrameType type);

struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint16_t flags = 0;         ///< Reserved; must be written as zero.
  uint32_t payload_bytes = 0;
  uint32_t reserved = 0;      ///< Keeps the checksum 8-byte aligned.
  uint64_t checksum = 0;      ///< util::Checksum64 of the payload bytes.
};
static_assert(sizeof(FrameHeader) == 24);
static_assert(std::is_trivially_copyable_v<FrameHeader>);

inline constexpr size_t kFrameHeaderBytes = sizeof(FrameHeader);

/// A decoded frame: type plus owned payload bytes.
struct Frame {
  FrameType type{};
  std::vector<uint8_t> payload;
};

/// Encodes a complete frame (header + payload) ready for the wire.
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 std::span<const uint8_t> payload);

/// Validates the 24 header bytes: magic, version, known type, and
/// payload_bytes <= kMaxFramePayload — everything checkable before the
/// payload arrives, so a connection can reject a poison length prefix
/// without buffering anything.
util::Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> bytes);

/// Verifies the payload of a validated header (length + checksum) and
/// returns the assembled frame (payload copied out of `payload`).
util::Result<Frame> DecodeFramePayload(const FrameHeader& header,
                                       std::span<const uint8_t> payload);

/// Bytes one socket read asks for, at either end: an upload needs few
/// syscalls, and the chunk fits on the reader's stack.
inline constexpr size_t kReadChunk = 64 * 1024;

/// Reassembles frames from a byte stream: the one frame reader of both
/// ends of a connection (server::Connection, server::Client). Bytes go in
/// with Append. Ready validates the next header as soon as its 24 bytes
/// are buffered, so a poison length prefix (past kMaxFramePayload) is
/// refused before any of its payload is, and says whether the whole frame
/// is here; Pop checks the payload's checksum and hands the frame out. The
/// buffer grows without zero-fill and holds only what was appended, so its
/// capacity follows the frames buffered, not the size of the reads that
/// fed it.
class FrameAssembler {
 public:
  void Append(std::span<const uint8_t> bytes);

  /// True once a complete frame is buffered. ParseError for a malformed
  /// header (DecodeFrameHeader's errors).
  util::Result<bool> Ready();

  /// Removes and returns the frame Ready reported; call only after Ready
  /// returned true. ParseError on a checksum mismatch.
  util::Result<Frame> Pop();

  bool empty() const { return begin_ == end_; }
  size_t capacity() const { return capacity_; }

  /// Frees the buffer when it is empty and holds more than `keep` bytes
  /// of capacity, so one large frame does not pin its size for life.
  void Trim(size_t keep);

 private:
  std::unique_ptr<uint8_t[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< Unconsumed bytes are [begin_, end_).
  size_t end_ = 0;
  std::optional<FrameHeader> header_;  ///< The next frame's, validated.
};

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  /// u32 length prefix + raw bytes (the names-section idiom).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  std::vector<uint8_t> Take() && { return std::move(bytes_); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  void AppendLe(const void* p, size_t n) {
    // The library already commits to little-endian hosts (store layer
    // refuses foreign byte order), so a memcpy IS the LE encoding.
    const size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::memcpy(bytes_.data() + at, p, n);
  }

  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over a payload span. Every method fails with
/// ParseError instead of reading past the end; Finish() rejects trailing
/// garbage so a payload must parse exactly.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  util::Result<uint8_t> U8();
  util::Result<uint32_t> U32();
  util::Result<uint64_t> U64();
  /// A u32-length-prefixed string; the length must fit in the remainder.
  util::Result<std::string> Str();

  /// OK iff every byte was consumed.
  util::Status Finish() const;

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  util::Status Need(size_t n) const;

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace server
}  // namespace jinfer

#endif  // JINFER_SERVER_FRAME_H_
