#include "server/frame.h"

#include <algorithm>

#include "util/check.h"
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

util::Result<FrameHeader> DecodeFrameHeader(std::span<const uint8_t> bytes) {
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
  if (header.payload_bytes > kMaxFramePayload) {
    return util::Status::ParseError(util::StrFormat(
        "oversized frame: %u payload bytes exceeds the %u-byte bound",
        header.payload_bytes, kMaxFramePayload));
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

void FrameAssembler::Append(std::span<const uint8_t> bytes) {
  if (bytes.empty()) return;
  const size_t live = end_ - begin_;
  if (capacity_ - end_ < bytes.size()) {
    if (capacity_ - live >= bytes.size()) {
      // Enough room once the consumed prefix goes: slide the rest down.
      std::memmove(buf_.get(), buf_.get() + begin_, live);
    } else {
      const size_t grown = std::max(live + bytes.size(), 2 * capacity_);
      auto bigger = std::make_unique_for_overwrite<uint8_t[]>(grown);
      if (live > 0) std::memcpy(bigger.get(), buf_.get() + begin_, live);
      buf_ = std::move(bigger);
      capacity_ = grown;
    }
    begin_ = 0;
    end_ = live;
  }
  std::memcpy(buf_.get() + end_, bytes.data(), bytes.size());
  end_ += bytes.size();
}

util::Result<bool> FrameAssembler::Ready() {
  const size_t live = end_ - begin_;
  if (!header_.has_value()) {
    if (live < kFrameHeaderBytes) return false;
    JINFER_ASSIGN_OR_RETURN(
        header_, DecodeFrameHeader(std::span<const uint8_t>(
                     buf_.get() + begin_, kFrameHeaderBytes)));
  }
  return live >= kFrameHeaderBytes + header_->payload_bytes;
}

util::Result<Frame> FrameAssembler::Pop() {
  JINFER_CHECK(header_.has_value() &&
                   end_ - begin_ >= kFrameHeaderBytes + header_->payload_bytes,
               "FrameAssembler::Pop without a complete frame");
  const size_t bytes = kFrameHeaderBytes + header_->payload_bytes;
  JINFER_ASSIGN_OR_RETURN(
      Frame frame,
      DecodeFramePayload(*header_, std::span<const uint8_t>(
                                       buf_.get() + begin_ + kFrameHeaderBytes,
                                       header_->payload_bytes)));
  header_.reset();
  begin_ += bytes;
  if (begin_ == end_) begin_ = end_ = 0;
  return frame;
}

void FrameAssembler::Trim(size_t keep) {
  if (!empty() || capacity_ <= keep) return;
  buf_.reset();
  capacity_ = 0;
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
