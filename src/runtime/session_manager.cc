#include "runtime/session_manager.h"

#include <algorithm>
#include <atomic>
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

/// RunAll's scheduler: one FIFO of job indices per worker, each behind its
/// own mutex on its own cache line, plus the count of jobs not yet
/// finished. A job index is in exactly one place at a time — one queue, a
/// worker's hands, or retired — so no per-job locking is needed: a job
/// that changes workers passes through a queue mutex, which orders what
/// its last worker wrote before its next worker reads it. Job i starts on
/// worker i mod W (the header comment has the policy).
///
/// Only its owner pushes to a queue, so a worker that parks leaves an empty
/// queue behind, and every queued job waits on a running worker that will
/// claim it. A wake-up therefore buys parallelism, never progress: a
/// requeue wakes one parked worker only if one is parked and the queue
/// holds a job besides the one its owner runs next. The last retirement
/// wakes every parked worker, so that each can return.
class Scheduler {
 public:
  Scheduler(size_t workers, size_t jobs)
      : queues_(workers), remaining_(jobs) {
    for (size_t i = 0; i < jobs; ++i) queues_[i % workers].jobs.push_back(i);
  }

  /// Worker `self`'s next job, parked while every queue is empty; nullopt
  /// once every job has retired.
  std::optional<size_t> Claim(size_t self) {
    while (true) {
      if (std::optional<size_t> job = Take(self)) return job;
      std::unique_lock<std::mutex> lock(park_mu_);
      if (remaining_.load() == 0) return std::nullopt;
      const uint64_t seen = wakeups_;
      // Counted before the second look, so a requeue that this look
      // misses sees the sleeper.
      sleepers_.fetch_add(1);
      std::optional<size_t> job = Take(self);
      if (!job) park_cv_.wait(lock, [&] { return wakeups_ != seen; });
      sleepers_.fetch_sub(1);
      if (job) return job;
    }
  }

  void Requeue(size_t self, size_t index) {
    size_t queued;
    {
      Queue& queue = queues_[self];
      std::lock_guard<std::mutex> lock(queue.mu);
      queue.jobs.push_back(index);
      queued = queue.jobs.size();
    }
    if (queued > 1 && sleepers_.load() > 0) Wake(/*all=*/false);
  }

  void Retire() {
    const size_t before = remaining_.fetch_sub(1);
    JINFER_CHECK(before > 0, "retired more jobs than exist");
    if (before == 1) Wake(/*all=*/true);
  }

 private:
  struct alignas(64) Queue {
    std::mutex mu;
    std::deque<size_t> jobs;
  };

  /// The front of `self`'s own queue, else the back of the first other
  /// queue that holds a job, scanning from self + 1.
  std::optional<size_t> Take(size_t self) {
    const size_t workers = queues_.size();
    for (size_t k = 0; k < workers; ++k) {
      Queue& queue = queues_[(self + k) % workers];
      std::lock_guard<std::mutex> lock(queue.mu);
      if (queue.jobs.empty()) continue;
      size_t index;
      if (k == 0) {
        index = queue.jobs.front();
        queue.jobs.pop_front();
      } else {
        index = queue.jobs.back();
        queue.jobs.pop_back();
      }
      return index;
    }
    return std::nullopt;
  }

  void Wake(bool all) {
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      ++wakeups_;
    }
    if (all) {
      park_cv_.notify_all();
    } else {
      park_cv_.notify_one();
    }
  }

  std::vector<Queue> queues_;
  /// Read by every requeue, written only when a worker parks or wakes.
  alignas(64) std::atomic<size_t> sleepers_{0};
  alignas(64) std::atomic<size_t> remaining_;
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  uint64_t wakeups_ = 0;  ///< Guarded by park_mu_.
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

  const size_t workers =
      std::min(util::ResolveThreadCount(options_.threads), n);
  Scheduler scheduler(workers, n);

  const size_t steps_per_slice = options_.steps_per_slice;
  auto worker = [&](size_t self) {
    while (std::optional<size_t> claimed = scheduler.Claim(self)) {
      const size_t i = *claimed;
      SessionJob& job = jobs[i];

      // Injected scheduling fault: the slice never starts, the job goes
      // back in this worker's queue untouched. Chaos schedules on
      // manager.step thus perturb only the interleaving — exactly what the
      // determinism contract says cannot change transcripts.
      if (!util::FailpointHit("manager.step").ok()) {
        counters_.slice_faults.Inc();
        scheduler.Requeue(self, i);
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
            scheduler.Requeue(self, i);
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
        scheduler.Requeue(self, i);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(worker, w);
  worker(0);  // Worker 0 runs inline, matching util::ParallelFor's model.
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
