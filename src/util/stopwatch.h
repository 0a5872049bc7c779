// Stopwatch: a steady-clock timer for spans, the inference loop and the
// experiment harness — plus the MonotonicClock seam that the IndexCache's
// failure-backoff windows and the server's queue timestamps read, so
// tests can substitute a FakeClock where a duration decision matters.

#ifndef JINFER_UTIL_STOPWATCH_H_
#define JINFER_UTIL_STOPWATCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace jinfer {
namespace util {

/// A monotonic nanosecond clock. The process clock (SystemClock) reads
/// std::chrono::steady_clock; tests inject a FakeClock to make time a
/// controlled input instead of an environmental one. Implementations must
/// be thread-safe and non-decreasing.
class MonotonicClock {
 public:
  virtual ~MonotonicClock() = default;

  /// Nanoseconds since an arbitrary (per-clock) epoch. Never decreases.
  virtual uint64_t NowNanos() const = 0;
};

/// The process-wide steady_clock-backed instance. Never null.
const MonotonicClock* SystemClock();

/// A hand-cranked clock for tests: time advances only when told to, so
/// backoff expiries become exact assertions instead of sleeps.
class FakeClock final : public MonotonicClock {
 public:
  explicit FakeClock(uint64_t start_nanos = 0) : nanos_(start_nanos) {}

  uint64_t NowNanos() const override {
    return nanos_.load(std::memory_order_relaxed);
  }

  void AdvanceNanos(uint64_t delta) {
    nanos_.fetch_add(delta, std::memory_order_relaxed);
  }

  void Advance(std::chrono::nanoseconds delta) {
    AdvanceNanos(static_cast<uint64_t>(delta.count()));
  }

 private:
  std::atomic<uint64_t> nanos_;
};

class Stopwatch {
 public:
  /// Starts timing on the steady clock (read directly: spans are the
  /// hottest timing call sites in the process).
  Stopwatch() : start_nanos_(SteadyNanos()) {}

  /// Restarts the timer.
  void Reset() { start_nanos_ = SteadyNanos(); }

  /// Elapsed time since construction or the last Reset, in seconds.
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  /// Elapsed time in whole nanoseconds.
  uint64_t ElapsedNanos() const { return SteadyNanos() - start_nanos_; }

  /// The start instant, in the steady clock's nanosecond epoch — what a
  /// span record stores so a timeline can be reconstructed without a
  /// second clock read.
  uint64_t StartNanos() const { return start_nanos_; }

 private:
  static uint64_t SteadyNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  uint64_t start_nanos_;
};

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_STOPWATCH_H_
