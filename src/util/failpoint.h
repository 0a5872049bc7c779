// Failpoints: named fault-injection sites with deterministic triggers, for
// chaos-testing the failure domains of the store / cache / session runtime
// (DESIGN.md §10).
//
// An instrumented site calls FailpointHit("store.put.fsync") at the exact
// place a real fault would surface and treats a non-OK return like the real
// error (same cleanup, same classification). Sites cost ONE relaxed atomic
// load when nothing is armed — the global armed counter — so production
// binaries pay no measurable overhead (BM_FailpointDisarmed pins this).
//
// Trigger modes (armed per name, via API or the JINFER_FAILPOINTS env var):
//   count:N     the next N hits fail, then the point exhausts itself
//   every:N     hits N, 2N, 3N, ... fail — a periodic transient fault
//   prob:P[:S]  each hit fails independently with probability P, drawn
//               from a per-point xoshiro stream seeded with S (default 1) —
//               randomized but exactly reproducible
//   sleep:MS    the hit *delays* MS milliseconds and then succeeds — slow
//               I/O rather than failed I/O (exercises deadlines/backoff)
//
// Env spec: `JINFER_FAILPOINTS="name=mode;name=mode"` (';' or ',' between
// entries), parsed once at process start. Injected failures carry
// StatusCode::kUnavailable — the transient class — so retry/backoff layers
// see exactly what a flaky disk or exhausted fd table would produce.
//
// Registered names (grep for FailpointHit to verify the list):
//   store.put.fsync    fsync of the temp file in IndexStore::Put
//   store.put.rename   the atomic rename publishing the file
//   store.put.dirsync  the directory fsync journaling the rename
//   store.load.mmap    mapping a stored index in IndexStore::Load
//   cache.build        a SignatureIndex build inside IndexCache
//   manager.step       the SessionManager worker claiming a slice
//   server.accept      Server::AcceptPending about to accept a connection
//   server.conn.read   a readable connection about to recv()
//   server.conn.write  a writable connection about to send()
//   server.frame.decode a complete frame about to be decoded
//
// Thread-safe: arming/disarming and hits may race freely; the registry
// mutex serializes trigger evaluation (hit order across threads is the only
// nondeterminism, the same one real faults have).

#ifndef JINFER_UTIL_FAILPOINT_H_
#define JINFER_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace jinfer {
namespace util {

namespace failpoint_internal {
/// Count of armed failpoints (sleep points included). Nonzero routes hits
/// to the slow path; zero is the production steady state.
extern std::atomic<uint32_t> g_armed;

/// Full evaluation: look the name up, apply its trigger, update stats.
Status HitSlow(const char* name);
}  // namespace failpoint_internal

/// True iff any failpoint is armed (relaxed; the disarmed fast path).
inline bool FailpointsArmed() {
  return failpoint_internal::g_armed.load(std::memory_order_relaxed) != 0;
}

/// The instrumented-site entry point. OK when disarmed or untriggered;
/// kUnavailable ("injected fault at <name>") when the trigger fires. A
/// sleep-mode point delays and returns OK.
inline Status FailpointHit(const char* name) {
  if (!FailpointsArmed()) return Status::OK();
  return failpoint_internal::HitSlow(name);
}

/// Per-point observability for tests and benches.
struct FailpointStats {
  uint64_t hits = 0;   ///< Times an armed site evaluated this point.
  uint64_t trips = 0;  ///< Hits that injected a fault (or slept).
};

class Failpoints {
 public:
  /// Parses and arms a spec ("name=count:2;other=prob:0.1:42"). Entries
  /// are additive; re-arming a name replaces its mode and resets its
  /// counters. InvalidArgument on a malformed entry (nothing from that
  /// entry onward is armed).
  static Status ArmFromSpec(std::string_view spec);

  /// Single-point arming, same mode grammar as the spec ("count:3").
  static Status Arm(const std::string& name, const std::string& mode);

  static void Disarm(const std::string& name);

  /// Disarms everything, including points armed from JINFER_FAILPOINTS.
  static void Reset();

  /// Stats for a point (zeros when never armed).
  static FailpointStats Stats(const std::string& name);

  /// RAII suspension: while any instance lives, armed points evaluate to
  /// OK (hits still counted). Lets a chaos test compute its fault-free
  /// baseline inside a process whose env schedule stays armed.
  class PauseScope {
   public:
    PauseScope();
    ~PauseScope();
    PauseScope(const PauseScope&) = delete;
    PauseScope& operator=(const PauseScope&) = delete;
  };
};

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_FAILPOINT_H_
