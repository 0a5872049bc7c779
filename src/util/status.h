// Status: lightweight error propagation without exceptions, in the style of
// RocksDB's rocksdb::Status / Arrow's arrow::Status.
//
// Fallible public APIs return Status (or Result<T>, see result.h). Internal
// invariant violations use JINFER_CHECK (util/check.h) instead.

#ifndef JINFER_UTIL_STATUS_H_
#define JINFER_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace jinfer {
namespace util {

/// Error taxonomy for the whole library. Kept deliberately small; the
/// message string carries the details.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kInconsistentSample = 5,  ///< User labels admit no consistent predicate.
  kCapacityExceeded = 6,    ///< e.g. |attrs(R)|*|attrs(P)| > kMaxOmegaBits.
  kIoError = 7,
  kParseError = 8,
  kUnimplemented = 9,
  kUnavailable = 10,        ///< Transient fault — safe to retry with backoff.
  kDeadlineExceeded = 11,   ///< The caller's deadline expired mid-operation.
  kResourceExhausted = 12,  ///< Shed under saturation — admit later, not now.
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Value-semantic status object. Ok statuses are cheap (no allocation).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// A status with `code` and `msg`, for a code known only as a value (one
  /// read off the wire); the factories below name each code.
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status InconsistentSample(std::string msg) {
    return Status(StatusCode::kInconsistentSample, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsInconsistentSample() const {
    return code_ == StatusCode::kInconsistentSample;
  }
  bool IsCapacityExceeded() const {
    return code_ == StatusCode::kCapacityExceeded;
  }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) {
    return !(a == b);
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Maps a failed syscall's errno into the taxonomy: recoverable resource
/// pressure (EINTR, EAGAIN, EBUSY, ENOMEM, EMFILE, ENFILE) is kUnavailable
/// — the transient, retry-with-backoff class — ENOSPC/EDQUOT is
/// kResourceExhausted, and everything else (bad fd, EIO, permissions) is a
/// permanent kIoError. `msg` should already name the operation and path.
Status IoStatusFromErrno(int err, std::string msg);

}  // namespace util
}  // namespace jinfer

/// Propagates a non-OK Status to the caller (Arrow's ARROW_RETURN_NOT_OK).
#define JINFER_RETURN_NOT_OK(expr)                   \
  do {                                               \
    ::jinfer::util::Status _st = (expr);             \
    if (!_st.ok()) return _st;                       \
  } while (false)

#endif  // JINFER_UTIL_STATUS_H_
