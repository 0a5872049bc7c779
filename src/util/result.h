// Result<T>: a value-or-Status holder, in the style of arrow::Result<T> /
// absl::StatusOr<T>. Prefer this over out-parameters for fallible factories.

#ifndef JINFER_UTIL_RESULT_H_
#define JINFER_UTIL_RESULT_H_

#include <utility>
#include <variant>

#include "util/check.h"
#include "util/status.h"

namespace jinfer {
namespace util {

/// Holds either a T or a non-OK Status.
///
/// Usage:
///   Result<rel::Relation> r = rel::ReadRelationCsvFile(path, "R");
///   if (!r.ok()) return r.status();
///   rel::Relation relation = std::move(r).ValueOrDie();
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, like arrow::Result).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status. Aborts if given an OK status, since
  /// that would be a Result with neither value nor error.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {
    JINFER_CHECK(!std::get<Status>(repr_).ok(),
                 "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns the status (OK when a value is held).
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  /// Returns the held value; aborts when holding an error.
  const T& ValueOrDie() const& {
    JINFER_CHECK(ok(), "Result::ValueOrDie on error: %s",
                 std::get<Status>(repr_).ToString().c_str());
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    JINFER_CHECK(ok(), "Result::ValueOrDie on error: %s",
                 std::get<Status>(repr_).ToString().c_str());
    return std::get<T>(repr_);
  }
  T ValueOrDie() && {
    JINFER_CHECK(ok(), "Result::ValueOrDie on error: %s",
                 std::get<Status>(repr_).ToString().c_str());
    return std::move(std::get<T>(repr_));
  }

  /// Accessor aliases matching arrow::Result.
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace util
}  // namespace jinfer

/// Assigns the value of a Result expression to `lhs`, or propagates its
/// error status. `lhs` may include a declaration, e.g.
///   JINFER_ASSIGN_OR_RETURN(auto r, rel::ReadRelationCsvFile(path, "R"));
#define JINFER_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).ValueOrDie()

#define JINFER_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define JINFER_ASSIGN_OR_RETURN_NAME(a, b) JINFER_ASSIGN_OR_RETURN_CONCAT(a, b)

#define JINFER_ASSIGN_OR_RETURN(lhs, expr) \
  JINFER_ASSIGN_OR_RETURN_IMPL(            \
      JINFER_ASSIGN_OR_RETURN_NAME(_jinfer_result_, __LINE__), lhs, expr)

#endif  // JINFER_UTIL_RESULT_H_
