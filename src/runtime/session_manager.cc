#include "runtime/session_manager.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace jinfer {
namespace runtime {

namespace {

/// Shared scheduler state: a ready queue of job indices plus the count of
/// jobs not yet finished. A job index is in exactly one place at a time —
/// the queue, a worker's hands, or retired — so no per-job locking is
/// needed; the queue mutex is the only synchronization point.
struct Scheduler {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;
  size_t remaining = 0;

  /// Blocks until a job is ready or everything finished; nullopt = done.
  std::optional<size_t> Claim() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return !ready.empty() || remaining == 0; });
    if (ready.empty()) return std::nullopt;
    size_t index = ready.front();
    ready.pop_front();
    return index;
  }

  void Requeue(size_t index) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(index);
    }
    cv.notify_one();
  }

  void Retire() {
    bool all_done;
    {
      std::lock_guard<std::mutex> lock(mu);
      JINFER_CHECK(remaining > 0, "retired more jobs than exist");
      all_done = --remaining == 0;
    }
    // Waking everyone on the last retirement releases workers parked in
    // Claim; intermediate retirements wake nobody (no new work appeared).
    if (all_done) cv.notify_all();
  }
};

}  // namespace

std::vector<util::Result<core::InferenceResult>> SessionManager::RunAll(
    std::vector<SessionJob> jobs) {
  const size_t n = jobs.size();
  if (n == 0) return {};

  // Slot i holds job i's session once created and its result once retired.
  std::vector<std::optional<Session>> sessions(n);
  std::vector<std::optional<util::Result<core::InferenceResult>>> slots(n);
  std::vector<std::optional<util::Backoff>> factory_backoff(n);

  Scheduler scheduler;
  scheduler.remaining = n;
  for (size_t i = 0; i < n; ++i) scheduler.ready.push_back(i);

  const size_t steps_per_slice = options_.steps_per_slice;
  auto worker = [&] {
    while (std::optional<size_t> claimed = scheduler.Claim()) {
      const size_t i = *claimed;
      SessionJob& job = jobs[i];

      // Injected scheduling fault: the slice never starts, the job goes
      // back in the queue untouched. Chaos schedules on manager.step thus
      // perturb only the interleaving — exactly what the determinism
      // contract says cannot change transcripts.
      if (!util::FailpointHit("manager.step").ok()) {
        counters_.slice_faults.Inc();
        scheduler.Requeue(i);
        continue;
      }

      if (!sessions[i]) {
        JINFER_CHECK(job.make != nullptr, "job %zu has no session factory",
                     i);
        JINFER_CHECK(job.oracle != nullptr, "job %zu has no oracle", i);
        util::Result<Session> made = job.make();
        if (!made.ok()) {
          const bool transient = util::IsTransient(made.status());
          if (!factory_backoff[i]) {
            factory_backoff[i].emplace(options_.factory_retry);
          }
          const bool attempts_left =
              options_.factory_retry.max_attempts <= 0 ||
              factory_backoff[i]->attempt() + 1 <
                  options_.factory_retry.max_attempts;
          if (transient && attempts_left) {
            // Back off on this worker (bounded by the policy cap), then
            // requeue.
            std::this_thread::sleep_for(factory_backoff[i]->Next());
            counters_.factory_retries.Inc();
            scheduler.Requeue(i);
            continue;
          }
          slots[i] = made.status();
          counters_.failed.Inc();
          scheduler.Retire();
          continue;
        }
        sessions[i].emplace(std::move(made).ValueOrDie());
      }

      Session& session = *sessions[i];
      util::Status error = util::Status::OK();
      bool finished = false;
      for (size_t step = 0; steps_per_slice == 0 || step < steps_per_slice;
           ++step) {
        std::optional<core::ClassId> question = session.NextQuestion();
        if (!question) {
          finished = true;
          break;
        }
        error = session.Answer(
            job.oracle->LabelClass(session.index(), *question));
        if (!error.ok()) {
          finished = true;  // An inconsistent oracle ends the session.
          break;
        }
      }

      if (finished) {
        slots[i] = error.ok()
                       ? util::Result<core::InferenceResult>(session.Result())
                       : util::Result<core::InferenceResult>(error);
        sessions[i].reset();
        (error.ok() ? counters_.completed : counters_.failed).Inc();
        scheduler.Retire();
      } else {
        scheduler.Requeue(i);
      }
    }
  };

  const size_t workers =
      std::min(util::ResolveThreadCount(options_.threads), n);
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();  // Worker 0 runs inline, matching util::ParallelFor's model.
  for (std::thread& t : pool) t.join();

  std::vector<util::Result<core::InferenceResult>> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    JINFER_CHECK(slots[i].has_value(), "job %zu never finished", i);
    results.push_back(std::move(*slots[i]));
  }
  return results;
}

SessionManager::Stats SessionManager::stats() const {
  Stats out;
  out.completed = counters_.completed.Value();
  out.failed = counters_.failed.Value();
  out.factory_retries = counters_.factory_retries.Value();
  out.slice_faults = counters_.slice_faults.Value();
  return out;
}

}  // namespace runtime
}  // namespace jinfer
