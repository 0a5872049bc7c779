// Deadline: a point on the steady clock that cooperative code checks at
// its natural yield points. Its caller is interactive_cli's question
// loop, which stops at the next question boundary once the --deadline-ms
// budget is spent and keeps the hypothesis so far.
//
// Deadlines are propagated by value and never block anything themselves;
// enforcement is wherever the holder chooses to check expired(). The
// infinite deadline makes "no deadline" a first-class value, so call sites
// need no sentinel branches.

#ifndef JINFER_UTIL_DEADLINE_H_
#define JINFER_UTIL_DEADLINE_H_

#include <chrono>

namespace jinfer {
namespace util {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  static Deadline Infinite() { return Deadline(Clock::time_point::max()); }

  /// Expires `budget` from now; a zero or negative budget is infinite
  /// (the options-struct convention: 0 = no deadline).
  static Deadline After(std::chrono::nanoseconds budget) {
    if (budget <= std::chrono::nanoseconds::zero()) return Infinite();
    return Deadline(Clock::now() + budget);
  }

  bool infinite() const { return at_ == Clock::time_point::max(); }

  bool expired() const { return !infinite() && Clock::now() >= at_; }

  /// Time left; zero once expired, the maximum duration when infinite.
  std::chrono::nanoseconds remaining() const {
    if (infinite()) return std::chrono::nanoseconds::max();
    const auto now = Clock::now();
    return now >= at_ ? std::chrono::nanoseconds::zero() : at_ - now;
  }

 private:
  explicit Deadline(Clock::time_point at) : at_(at) {}

  Clock::time_point at_;
};

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_DEADLINE_H_
