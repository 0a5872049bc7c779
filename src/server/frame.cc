#include "server/frame.h"

#include <algorithm>

#include "util/checksum.h"
#include "util/string_util.h"

namespace jinfer {
namespace server {

bool IsRequestType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kOpenSession:
    case FrameType::kNextQuestion:
    case FrameType::kAnswer:
    case FrameType::kCloseSession:
    case FrameType::kMetrics:
      return true;
    default:
      return false;
  }
}

bool IsKnownFrameType(uint8_t type) {
  if (IsRequestType(type)) return true;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kOpenOk:
    case FrameType::kQuestion:
    case FrameType::kCloseOk:
    case FrameType::kError:
    case FrameType::kMetricsOk:
      return true;
    default:
      return false;
  }
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kOpenSession: return "OpenSession";
    case FrameType::kNextQuestion: return "NextQuestion";
    case FrameType::kAnswer: return "Answer";
    case FrameType::kCloseSession: return "CloseSession";
    case FrameType::kMetrics: return "Metrics";
    case FrameType::kOpenOk: return "OpenOk";
    case FrameType::kQuestion: return "Question";
    case FrameType::kCloseOk: return "CloseOk";
    case FrameType::kError: return "Error";
    case FrameType::kMetricsOk: return "MetricsOk";
  }
  return "Unknown";
}

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 std::span<const uint8_t> payload) {
  FrameHeader header;
  header.type = static_cast<uint8_t>(type);
  header.payload_bytes = static_cast<uint32_t>(payload.size());
  header.checksum = util::Checksum64Of(payload.data(), payload.size());
  std::vector<uint8_t> out(kFrameHeaderBytes + payload.size());
  std::memcpy(out.data(), &header, kFrameHeaderBytes);
  // An empty span's data() may be null, which memcpy must not be handed.
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return out;
}

util::Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> bytes,
                                            uint32_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    return util::Status::ParseError(util::StrFormat(
        "truncated frame header: %zu of %zu bytes", bytes.size(),
        kFrameHeaderBytes));
  }
  FrameHeader header;
  std::memcpy(&header, bytes.data(), kFrameHeaderBytes);
  if (header.magic != kFrameMagic) {
    return util::Status::ParseError(
        util::StrFormat("bad frame magic 0x%08x", header.magic));
  }
  if (header.version != kProtocolVersion) {
    return util::Status::ParseError(util::StrFormat(
        "unsupported protocol version %u", unsigned{header.version}));
  }
  if (!IsKnownFrameType(header.type)) {
    return util::Status::ParseError(
        util::StrFormat("unknown frame type 0x%02x", unsigned{header.type}));
  }
  const uint32_t cap = std::min(max_payload, kMaxFramePayload);
  if (header.payload_bytes > cap) {
    return util::Status::ParseError(util::StrFormat(
        "oversized frame: %u payload bytes exceeds the %u-byte bound",
        header.payload_bytes, cap));
  }
  return header;
}

util::Result<Frame> DecodeFramePayload(const FrameHeader& header,
                                       std::span<const uint8_t> payload) {
  if (payload.size() != header.payload_bytes) {
    return util::Status::ParseError(util::StrFormat(
        "frame payload length mismatch: have %zu bytes, header says %u",
        payload.size(), header.payload_bytes));
  }
  const uint64_t checksum = util::Checksum64Of(payload.data(), payload.size());
  if (checksum != header.checksum) {
    return util::Status::ParseError(util::StrFormat(
        "frame checksum mismatch: computed %016llx, header says %016llx",
        static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(header.checksum)));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header.type);
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

util::Status WireReader::Need(size_t n) const {
  if (bytes_.size() - pos_ < n) {
    return util::Status::ParseError(util::StrFormat(
        "payload truncated: need %zu bytes at offset %zu of %zu", n, pos_,
        bytes_.size()));
  }
  return util::Status::OK();
}

util::Result<uint8_t> WireReader::U8() {
  JINFER_RETURN_NOT_OK(Need(1));
  return bytes_[pos_++];
}

util::Result<uint32_t> WireReader::U32() {
  JINFER_RETURN_NOT_OK(Need(4));
  uint32_t v;
  std::memcpy(&v, bytes_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

util::Result<uint64_t> WireReader::U64() {
  JINFER_RETURN_NOT_OK(Need(8));
  uint64_t v;
  std::memcpy(&v, bytes_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

util::Result<std::string> WireReader::Str() {
  JINFER_ASSIGN_OR_RETURN(const uint32_t len, U32());
  JINFER_RETURN_NOT_OK(Need(len));
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return s;
}

util::Status WireReader::Finish() const {
  if (pos_ != bytes_.size()) {
    return util::Status::ParseError(util::StrFormat(
        "payload has %zu trailing bytes", bytes_.size() - pos_));
  }
  return util::Status::OK();
}

}  // namespace server
}  // namespace jinfer
