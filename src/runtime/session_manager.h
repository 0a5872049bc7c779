// SessionManager: drives many inference sessions to completion over a
// fixed pool of worker threads.
//
// Each job pairs a session factory with the oracle that answers its
// questions. A worker claims a job and advances its session by a bounded
// slice of steps (NextQuestion → oracle → Answer) before requeueing it, so
// N sessions make progress over far fewer threads — the multiplexing a
// runtime needs when sessions outnumber cores. The factory runs on the
// worker, which is where shared-state resolution belongs: jobs that fetch
// their index through a runtime::IndexCache exercise its single-flight
// path under real concurrency.
//
// Scheduling: each worker owns a run queue (a FIFO of job indices behind
// its own mutex, on its own cache line), and job i is dealt to worker
// i mod W. A worker claims from the front of its own queue and requeues at
// its back, so a slice takes no lock another worker wants. A worker whose
// queue runs dry steals from the back of another's; only when every queue
// is empty does it park on a condition variable. A requeue wakes a parked
// worker only when one is parked and the queue holds a job to spare, and
// the last retirement wakes them all. Nothing spins.
//
// Determinism contract: sessions share no mutable state (strategy RNGs are
// per-session, oracles are per-job, the index is immutable), so a
// session's transcript and result are a pure function of its job — bit-
// identical whether it runs alone, serially, or among a thousand
// concurrent sessions, for every thread count and slice size. Which
// worker runs which slice, and in what order, is therefore free: the
// schedule decides when a session advances, never what it computes.
// Property-tested in tests/runtime/session_manager_test.cc.
//
// Failure domains (DESIGN.md §10): the manager degrades, it never wedges.
//   - Transient factory failures (a store/cache hiccup, an injected fault)
//     are retried per factory_retry — the worker backs off and requeues the
//     job on its own queue rather than failing it; permanent factory errors
//     fail it at once. A factory that blocks holds only its own worker:
//     the others steal the jobs queued behind it.
//   - The manager.step failpoint fires when a worker claims a slice,
//     *before* any stepping: a tripped slice is a pure requeue on the
//     claiming worker's queue, so chaos schedules perturb scheduling order
//     only — transcripts stay bit-identical (tests/chaos/).

#ifndef JINFER_RUNTIME_SESSION_MANAGER_H_
#define JINFER_RUNTIME_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/inference.h"
#include "core/oracle.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "util/result.h"
#include "util/retry.h"

namespace jinfer {
namespace runtime {

/// One unit of work: build a session (on the worker), answer its questions
/// with `oracle` until it finishes.
struct SessionJob {
  /// Called once, on the worker that first claims the job. May block (e.g.
  /// on IndexCache::GetOrBuild); an error fails this job only.
  std::function<util::Result<Session>()> make;

  /// Answers the session's questions. Must not be shared with other jobs
  /// unless it is thread-safe and order-insensitive.
  std::unique_ptr<core::Oracle> oracle;
};

class SessionManager {
 public:
  struct Options {
    /// Worker threads: >= 1 exact, 0 = one per hardware thread. Capped at
    /// the job count; 1 runs everything inline on the calling thread.
    int threads = 1;

    /// Interactions a worker performs on a claimed session before
    /// requeueing it (fairness knob); 0 = run a claimed session to
    /// completion (coarsest schedule, fewest queue round-trips).
    size_t steps_per_slice = 8;

    /// Options for the manager-owned IndexCache (see cache()): build
    /// options, the memory-tier capacity bound, and an optional persistent
    /// store tier — the same struct a server::Server takes for its own
    /// cache. The default is the documented bounded capacity
    /// (runtime::kDefaultIndexCacheCapacity); set capacity = 0 to opt back
    /// into PR 3's unbounded never-evicting behavior.
    IndexCacheOptions cache_options;

    /// Retry policy for *transient* session-factory failures (the cache's
    /// fail-fast backoff window, an injected fault). max_attempts <= 0
    /// retries until the factory succeeds — the right setting under chaos
    /// schedules where every fault is transient by contract.
    util::RetryPolicy factory_retry;
  };

  /// Counters accumulated across RunAll calls; see stats().
  struct Stats {
    uint64_t completed = 0;  ///< Jobs that finished with a result.
    uint64_t failed = 0;     ///< Jobs that ended in an error (any kind).
    uint64_t factory_retries = 0;  ///< Transient factory failures requeued.
    uint64_t slice_faults = 0;  ///< manager.step trips (slice requeued).
  };

  SessionManager() : SessionManager(Options{}) {}
  explicit SessionManager(Options options)
      : options_(options), cache_(options.cache_options) {}

  /// Runs every job to completion and returns their results in job order:
  /// the session's final InferenceResult, or the error from its factory /
  /// an inconsistent oracle. Blocks until all jobs finish.
  std::vector<util::Result<core::InferenceResult>> RunAll(
      std::vector<SessionJob> jobs);

  /// The manager-owned index cache. Session factories that capture it
  /// resolve their indexes through one shared, bounded, tiered cache.
  IndexCache& cache() { return cache_; }

  /// A read of the manager's own counter cells (thread-safe; callable while
  /// RunAll is in flight from another thread, exact once it returns).
  Stats stats() const;

 private:
  /// One cell per Stats counter — its only store, attached to the
  /// process-wide series of the same name (DESIGN.md §13.1).
  struct Counters {
    obs::OwnedCounter completed{obs::kManagerCompletedTotal};
    obs::OwnedCounter failed{obs::kManagerFailedTotal};
    obs::OwnedCounter factory_retries{obs::kManagerFactoryRetriesTotal};
    obs::OwnedCounter slice_faults{obs::kManagerSliceFaultsTotal};
  };

  Options options_;
  IndexCache cache_;
  Counters counters_;
};

}  // namespace runtime
}  // namespace jinfer

#endif  // JINFER_RUNTIME_SESSION_MANAGER_H_
