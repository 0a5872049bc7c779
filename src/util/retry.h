// Retry with capped exponential backoff and deterministic seeded jitter
// (DESIGN.md §10).
//
// The error taxonomy splits failures into transient (kUnavailable — a flaky
// fsync, an exhausted fd table, an injected failpoint) and permanent
// (everything else: corrupt bytes are ParseError, bad input is
// InvalidArgument, a shed request is ResourceExhausted). Only transient
// failures are retried; retrying a permanent one just repeats the outcome,
// and retrying a shed amplifies exactly the overload that caused it.
//
// Backoff for attempt k (0-based) is base_backoff * 2^k, capped at
// max_backoff, then scaled by a jitter factor in [0.5, 1.0) drawn from an
// Rng seeded with `jitter_seed` — deterministic per policy instance, so
// tests replay byte-identical schedules while concurrent retriers with
// different seeds still decorrelate (no thundering herd on a shared
// dependency).
//
// Sleeping is injectable: tests pass a recording sleeper and run in
// microseconds; production uses the default std::this_thread sleeper.

#ifndef JINFER_UTIL_RETRY_H_
#define JINFER_UTIL_RETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <type_traits>

#include "util/rng.h"
#include "util/status.h"

namespace jinfer {
namespace util {

/// True for the status class that retry/backoff may act on.
inline bool IsTransient(const Status& status) {
  return status.IsUnavailable();
}

struct RetryPolicy {
  /// Total tries including the first; <= 0 means unlimited (the caller is
  /// expected to bound the loop some other way — a failpoint schedule
  /// that exhausts, an operator).
  int max_attempts = 3;

  std::chrono::microseconds base_backoff{1000};
  std::chrono::microseconds max_backoff{100000};

  /// Seed of the jitter stream; give concurrent retriers distinct seeds.
  uint64_t jitter_seed = 0x6a696e666572ULL;  // "jinfer"
};

/// The deterministic backoff schedule of a policy: the k-th call to Next()
/// (0-based) returns the delay before the k-th retry, which follows the
/// k+1-th failed attempt. Stateful because the jitter is a stream: one
/// Backoff instance per retried operation.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy)
      : policy_(policy), rng_(policy.jitter_seed) {}

  std::chrono::microseconds Next() {
    const int shift = attempt_ < 20 ? attempt_ : 20;  // 2^20 * base ≫ cap
    ++attempt_;
    auto raw = policy_.base_backoff * (1LL << shift);
    if (raw > policy_.max_backoff) raw = policy_.max_backoff;
    const double jitter = 0.5 + rng_.NextDouble() / 2.0;  // [0.5, 1.0)
    return std::chrono::microseconds(
        static_cast<int64_t>(static_cast<double>(raw.count()) * jitter));
  }

  int attempt() const { return attempt_; }

 private:
  RetryPolicy policy_;
  Rng rng_;
  int attempt_ = 0;
};

using Sleeper = std::function<void(std::chrono::microseconds)>;

inline void RealSleep(std::chrono::microseconds d) {
  std::this_thread::sleep_for(d);
}

/// Runs `fn` (returning Status or Result<T>) until it succeeds, fails
/// permanently, or the policy's attempts exhaust. `retries`, when given,
/// accumulates the number of re-runs (for stats counters).
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, Fn&& fn,
               uint64_t* retries = nullptr, const Sleeper& sleep = RealSleep)
    -> decltype(fn()) {
  Backoff backoff(policy);
  while (true) {
    auto outcome = fn();
    Status status;
    if constexpr (std::is_same_v<decltype(outcome), Status>) {
      status = outcome;
    } else {
      status = outcome.status();
    }
    const bool out_of_attempts =
        policy.max_attempts > 0 && backoff.attempt() + 1 >= policy.max_attempts;
    if (status.ok() || !IsTransient(status) || out_of_attempts) {
      return outcome;
    }
    sleep(backoff.Next());
    if (retries != nullptr) ++*retries;
  }
}

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_RETRY_H_
