// Stopwatch: monotonic wall-clock timer used by the experiment harness —
// plus the MonotonicClock seam the observability layer (src/obs/) times
// through, so tests can substitute a FakeClock for the steady clock
// anywhere a duration decision matters (failure backoff, span timing).

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
/// backoff expiries and span durations become exact assertions instead of
/// sleeps.
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
  /// Times against the steady clock directly (no virtual dispatch — the
  /// hot-path default every existing call site keeps).
  Stopwatch() : clock_(nullptr), start_nanos_(SteadyNanos()) {}

  /// Times against an injected clock (nullptr falls back to the steady
  /// clock). The obs layer threads this through so fake-clock tests can
  /// freeze or crank span timing.
  explicit Stopwatch(const MonotonicClock* clock)
      : clock_(clock), start_nanos_(Now()) {}

  /// Restarts the timer.
  void Reset() { start_nanos_ = Now(); }

  /// Elapsed time since construction or the last Reset, in seconds.
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  /// Elapsed time in whole nanoseconds.
  uint64_t ElapsedNanos() const {
    const uint64_t now = Now();
    return now > start_nanos_ ? now - start_nanos_ : 0;
  }

  /// Elapsed time in microseconds.
  int64_t ElapsedMicros() const {
    return static_cast<int64_t>(ElapsedNanos() / 1000);
  }

  /// The start instant, in the clock's own nanosecond epoch — what a span
  /// record stores so a timeline can be reconstructed without a second
  /// clock read.
  uint64_t StartNanos() const { return start_nanos_; }

 private:
  static uint64_t SteadyNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  uint64_t Now() const {
    return clock_ != nullptr ? clock_->NowNanos() : SteadyNanos();
  }

  const MonotonicClock* clock_;
  uint64_t start_nanos_;
};

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_STOPWATCH_H_
