#include "runtime/session_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "runtime/index_cache.h"
#include "testing/paper_fixtures.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "workload/experiment.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace runtime {
namespace {

void ExpectSameResult(const core::InferenceResult& a,
                      const core::InferenceResult& b) {
  EXPECT_EQ(a.predicate, b.predicate);
  EXPECT_EQ(a.num_interactions, b.num_interactions);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].cls, b.trace[i].cls) << "interaction " << i;
    EXPECT_EQ(a.trace[i].label, b.trace[i].label) << "interaction " << i;
    EXPECT_EQ(a.trace[i].informative_before, b.trace[i].informative_before)
        << "interaction " << i;
  }
}

/// One parameterized workload cell: (strategy, seed, goal) on a shared
/// index. The job factory builds its session on the claiming worker, like
/// production jobs do.
struct Spec {
  core::StrategyKind kind;
  uint64_t seed;
  core::JoinPredicate goal;
};

std::vector<Spec> MakeSpecs(const core::SignatureIndex& index) {
  auto goals = workload::SampleGoalsBySize(index, /*max_per_size=*/2,
                                           /*seed=*/31337);
  JINFER_CHECK(goals.ok(), "goals");
  std::vector<Spec> specs;
  uint64_t seed = 0;
  for (const auto& [size, bucket_goals] : *goals) {
    for (const core::JoinPredicate& goal : bucket_goals) {
      for (core::StrategyKind kind :
           {core::StrategyKind::kBottomUp, core::StrategyKind::kTopDown,
            core::StrategyKind::kLookahead1, core::StrategyKind::kLookahead2,
            core::StrategyKind::kRandom}) {
        specs.push_back(Spec{kind, ++seed, goal});
      }
    }
  }
  return specs;
}

std::vector<SessionJob> MakeJobs(const core::SignatureIndex& index,
                                 const std::vector<Spec>& specs) {
  std::vector<SessionJob> jobs;
  jobs.reserve(specs.size());
  for (const Spec& spec : specs) {
    SessionJob job;
    job.make = [&index, spec] {
      return util::Result<Session>(
          Session(index, core::MakeStrategy(spec.kind, spec.seed)));
    };
    job.oracle = std::make_unique<core::GoalOracle>(spec.goal);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// The acceptance property: a session's transcript is bit-identical whether
// it runs alone or among many concurrent sessions — at 1 and 4 threads,
// and under the finest slice (1 step) that maximizes interleaving.
TEST(SessionManagerTest, TranscriptsIdenticalSoloSerialAndConcurrent) {
  auto inst = workload::GenerateSynthetic({3, 3, 30, 6}, 777);
  ASSERT_TRUE(inst.ok());
  auto index = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());

  const std::vector<Spec> specs = MakeSpecs(*index);
  ASSERT_GE(specs.size(), 10u);

  // Baseline: every spec run alone, no manager involved.
  std::vector<core::InferenceResult> solo;
  for (const Spec& spec : specs) {
    Session session(*index, core::MakeStrategy(spec.kind, spec.seed));
    core::GoalOracle oracle(spec.goal);
    while (std::optional<core::ClassId> question = session.NextQuestion()) {
      ASSERT_TRUE(
          session.Answer(oracle.LabelClass(*index, *question)).ok());
    }
    solo.push_back(session.Result());
  }

  for (int threads : {1, 4}) {
    SessionManager::Options options;
    options.threads = threads;
    options.steps_per_slice = 1;
    SessionManager manager(options);
    auto results = manager.RunAll(MakeJobs(*index, specs));
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << "job " << i << " at " << threads
                                   << " threads";
      ExpectSameResult(solo[i], *results[i]);
    }
  }
}

// --- The scheduler: per-worker queues, stealing, parking --------------

// Job 0's factory holds its worker until every other job's factory has
// run, so the other worker must also take the jobs dealt to the held one.
// The wait gives up after 30 s with a permanent error: a scheduler that
// strands them fails here instead of hanging.
TEST(SessionManagerTest, ABlockedFactoryDoesNotStrandOtherJobs) {
  core::SignatureIndex index = testing::Example21Index();
  constexpr size_t kJobs = 16;
  std::mutex mu;
  std::condition_variable others_ran;
  size_t others_made = 0;  // Guarded by mu.

  std::vector<SessionJob> jobs;
  for (size_t j = 0; j < kJobs; ++j) {
    SessionJob job;
    job.make = [&, j]() -> util::Result<Session> {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (j == 0) {
          if (!others_ran.wait_for(lock, std::chrono::seconds(30), [&] {
                return others_made == kJobs - 1;
              })) {
            return util::Status::FailedPrecondition(
                "the other jobs' factories never ran");
          }
        } else if (++others_made == kJobs - 1) {
          others_ran.notify_all();
        }
      }
      return Session(index, core::MakeStrategy(core::StrategyKind::kTopDown));
    };
    job.oracle = std::make_unique<core::GoalOracle>(
        testing::Pred(index.omega(), {{0, 0}, {1, 1}}));
    jobs.push_back(std::move(job));
  }

  SessionManager::Options options;
  options.threads = 2;
  options.steps_per_slice = 1;
  auto results = SessionManager(options).RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), kJobs);
  for (size_t j = 0; j < kJobs; ++j) {
    EXPECT_TRUE(results[j].ok())
        << "job " << j << ": " << results[j].status().ToString();
  }
}

// Small batches of unequal sessions on more workers than the longest
// needs: every batch ends with workers parked while one finishes, and
// the last retirement must wake them all. A lost wake-up hangs here; a
// race in parking shows under TSan.
TEST(SessionManagerTest, WorkersParkAndWakeAtEveryBatchTail) {
  auto inst = workload::GenerateSynthetic({3, 3, 30, 6}, 777);
  ASSERT_TRUE(inst.ok());
  auto index = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());

  // Five cheap specs of pairwise different lengths, each with its solo
  // transcript.
  constexpr size_t kBatch = 5;
  std::vector<Spec> specs;
  std::vector<core::InferenceResult> solo;
  for (const Spec& spec : MakeSpecs(*index)) {
    if (specs.size() == kBatch) break;
    if (spec.kind != core::StrategyKind::kBottomUp &&
        spec.kind != core::StrategyKind::kTopDown &&
        spec.kind != core::StrategyKind::kRandom) {
      continue;
    }
    Session session(*index, core::MakeStrategy(spec.kind, spec.seed));
    core::GoalOracle oracle(spec.goal);
    while (std::optional<core::ClassId> question = session.NextQuestion()) {
      ASSERT_TRUE(
          session.Answer(oracle.LabelClass(*index, *question)).ok());
    }
    core::InferenceResult result = session.Result();
    const bool new_length = std::none_of(
        solo.begin(), solo.end(), [&](const core::InferenceResult& other) {
          return other.num_interactions == result.num_interactions;
        });
    if (!new_length) continue;
    specs.push_back(spec);
    solo.push_back(std::move(result));
  }
  ASSERT_EQ(specs.size(), kBatch);

  SessionManager::Options options;
  options.threads = 4;
  options.steps_per_slice = 1;
  SessionManager manager(options);
  for (size_t batch = 0; batch < 200; ++batch) {
    // Rotate the batch, so that the longest session is dealt to each
    // worker in turn.
    std::vector<Spec> order(specs);
    std::rotate(order.begin(), order.begin() + batch % kBatch, order.end());
    auto results = manager.RunAll(MakeJobs(*index, order));
    ASSERT_EQ(results.size(), kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(results[i].ok()) << "batch " << batch << " job " << i;
      ExpectSameResult(solo[(i + batch) % kBatch], *results[i]);
    }
  }
  EXPECT_EQ(manager.stats().completed, 200 * kBatch);
}

TEST(SessionManagerTest, StepsPerSliceZeroRunsClaimedSessionsToCompletion) {
  core::SignatureIndex index = testing::Example21Index();
  std::vector<Spec> specs = {
      {core::StrategyKind::kTopDown, 1,
       testing::Pred(index.omega(), {{0, 0}, {1, 1}})},
      {core::StrategyKind::kBottomUp, 2,
       testing::Pred(index.omega(), {{0, 2}})},
  };
  SessionManager::Options options;
  options.threads = 2;
  options.steps_per_slice = 0;
  auto results = SessionManager(options).RunAll(MakeJobs(index, specs));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->num_interactions, 0u);
  }
}

TEST(SessionManagerTest, FactoryErrorFailsOnlyItsJob) {
  core::SignatureIndex index = testing::Example21Index();

  std::vector<SessionJob> jobs;
  SessionJob good;
  good.make = [&index] {
    return util::Result<Session>(
        Session(index, core::MakeStrategy(core::StrategyKind::kTopDown)));
  };
  good.oracle = std::make_unique<core::GoalOracle>(
      testing::Pred(index.omega(), {{0, 0}, {1, 1}}));
  jobs.push_back(std::move(good));

  SessionJob bad;
  bad.make = [] {
    return util::Result<Session>(
        util::Status::InvalidArgument("no such instance"));
  };
  bad.oracle = std::make_unique<core::GoalOracle>(core::JoinPredicate());
  jobs.push_back(std::move(bad));

  auto results = SessionManager().RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
}

// Production shape: jobs resolve their index through a shared IndexCache
// on the worker, so racing factories exercise the single-flight path.
TEST(SessionManagerTest, JobsShareIndexesThroughTheCache) {
  auto inst_a = workload::GenerateSynthetic({2, 2, 20, 5}, 1);
  auto inst_b = workload::GenerateSynthetic({2, 2, 20, 5}, 2);
  ASSERT_TRUE(inst_a.ok());
  ASSERT_TRUE(inst_b.ok());

  IndexCache cache;
  std::vector<SessionJob> jobs;
  for (size_t i = 0; i < 16; ++i) {
    const workload::SyntheticInstance& inst = i % 2 == 0 ? *inst_a : *inst_b;
    SessionJob job;
    job.make = [&cache, &inst]() -> util::Result<Session> {
      JINFER_ASSIGN_OR_RETURN(auto index,
                              cache.GetOrBuild(inst.r, inst.p));
      return Session(std::move(index),
                     core::MakeStrategy(core::StrategyKind::kTopDown));
    };
    job.oracle = std::make_unique<core::GoalOracle>(
        core::JoinPredicate::Singleton(0));
    jobs.push_back(std::move(job));
  }

  SessionManager::Options options;
  options.threads = 4;
  auto results = SessionManager(options).RunAll(std::move(jobs));
  for (const auto& result : results) EXPECT_TRUE(result.ok());

  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2u);  // One per distinct instance, ever.
  EXPECT_EQ(stats.lookups, 16u);
  EXPECT_EQ(stats.hits, 14u);
}

// The manager-owned cache (ISSUE 4): capacity and store options flow in
// through SessionManager::Options, and jobs resolve through manager.cache()
// instead of a hand-carried cache object. The documented default is the
// bounded capacity; the assertions pin that the bound was applied.
TEST(SessionManagerTest, ManagerOwnedCacheHonorsTheCapacityBound) {
  auto inst_a = workload::GenerateSynthetic({2, 2, 20, 5}, 1);
  auto inst_b = workload::GenerateSynthetic({2, 2, 20, 5}, 2);
  ASSERT_TRUE(inst_a.ok());
  ASSERT_TRUE(inst_b.ok());

  SessionManager::Options options;
  options.threads = 2;
  EXPECT_EQ(options.cache_options.capacity, kDefaultIndexCacheCapacity);
  options.cache_options.capacity = 1;  // Force admission pressure.
  SessionManager manager(options);

  std::vector<SessionJob> jobs;
  for (size_t i = 0; i < 12; ++i) {
    const workload::SyntheticInstance& inst = i % 2 == 0 ? *inst_a : *inst_b;
    SessionJob job;
    job.make = [&manager, &inst]() -> util::Result<Session> {
      JINFER_ASSIGN_OR_RETURN(auto index,
                              manager.cache().GetOrBuild(inst.r, inst.p));
      return Session(std::move(index),
                     core::MakeStrategy(core::StrategyKind::kTopDown));
    };
    job.oracle = std::make_unique<core::GoalOracle>(
        core::JoinPredicate::Singleton(0));
    jobs.push_back(std::move(job));
  }
  auto results = manager.RunAll(std::move(jobs));
  for (const auto& result : results) EXPECT_TRUE(result.ok());

  IndexCacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.lookups, 12u);
  // Capacity 1 over two alternating instances: at most one stays resident,
  // so the bound must have rejected or evicted at least once — the
  // never-evicts bug this option fixes would show zeros here.
  EXPECT_GE(stats.evictions + stats.rejected_admissions, 1u);
  EXPECT_LE(manager.cache().size(), 1u);
}

// --- Failure-domain hardening (DESIGN.md §10) -------------------------

/// The process-wide series `name`: every live manager's cell plus what
/// destroyed managers counted.
uint64_t GlobalSeries(std::string_view name) {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

class SessionManagerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::Failpoints::Reset(); }
  void TearDown() override { util::Failpoints::Reset(); }
};

TEST_F(SessionManagerFaultTest, StatsCountEveryJobOnceUnderAFaultSchedule) {
  // Transient build and slice faults perturb scheduling only: every job
  // still completes, each counted exactly once. The process-wide series
  // moves with stats() because they read the same cell — and keeps the
  // count after the manager is gone.
  auto inst = workload::GenerateSynthetic({3, 3, 25, 5}, 404);
  ASSERT_TRUE(inst.ok());
  ASSERT_TRUE(util::Failpoints::ArmFromSpec("cache.build=prob:0.3:41;"
                                            "manager.step=prob:0.2:43")
                  .ok());
  const uint64_t series_before = GlobalSeries(obs::kManagerCompletedTotal);

  constexpr size_t kJobs = 24;
  {
    SessionManager::Options options;
    options.threads = 4;
    options.steps_per_slice = 1;
    options.cache_options.failure_backoff_base = std::chrono::milliseconds(1);
    options.cache_options.failure_backoff_max = std::chrono::milliseconds(10);
    options.factory_retry.max_attempts = 0;  // Transient by contract.
    options.factory_retry.base_backoff = std::chrono::microseconds(200);
    options.factory_retry.max_backoff = std::chrono::microseconds(2000);
    SessionManager manager(options);

    std::vector<SessionJob> jobs;
    for (size_t j = 0; j < kJobs; ++j) {
      SessionJob job;
      job.make = [&manager, &inst]() -> util::Result<Session> {
        JINFER_ASSIGN_OR_RETURN(auto shared,
                                manager.cache().GetOrBuild(inst->r, inst->p));
        return Session(std::move(shared),
                       core::MakeStrategy(core::StrategyKind::kTopDown));
      };
      job.oracle = std::make_unique<core::GoalOracle>(
          core::JoinPredicate::Singleton(j % 3));
      jobs.push_back(std::move(job));
    }
    auto results = manager.RunAll(std::move(jobs));
    ASSERT_EQ(results.size(), kJobs);
    for (const auto& result : results) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }

    const SessionManager::Stats stats = manager.stats();
    EXPECT_EQ(stats.completed, kJobs);
    EXPECT_EQ(stats.failed, 0u);
    // The schedule actually bit (otherwise this is the fault-free case).
    EXPECT_GT(stats.factory_retries + stats.slice_faults, 0u);
    EXPECT_EQ(GlobalSeries(obs::kManagerCompletedTotal) - series_before,
              kJobs);
  }
  EXPECT_EQ(GlobalSeries(obs::kManagerCompletedTotal) - series_before, kJobs);
}

TEST(SessionManagerTest, TransientFactoryFailureIsRetriedToSuccess) {
  core::SignatureIndex index = testing::Example21Index();
  auto attempts = std::make_shared<std::atomic<int>>(0);

  std::vector<SessionJob> jobs;
  SessionJob flaky;
  flaky.make = [&index, attempts]() -> util::Result<Session> {
    if (attempts->fetch_add(1) < 2) {
      return util::Status::Unavailable("cache backing off");
    }
    return Session(index, core::MakeStrategy(core::StrategyKind::kTopDown));
  };
  flaky.oracle = std::make_unique<core::GoalOracle>(
      testing::Pred(index.omega(), {{0, 0}, {1, 1}}));
  jobs.push_back(std::move(flaky));

  SessionManager::Options options;
  options.factory_retry.max_attempts = 5;
  options.factory_retry.base_backoff = std::chrono::microseconds(100);
  SessionManager manager(options);
  auto results = manager.RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(attempts->load(), 3);
  EXPECT_EQ(manager.stats().factory_retries, 2u);
  EXPECT_EQ(manager.stats().completed, 1u);
}

TEST(SessionManagerTest, TransientFactoryFailureExhaustsAttemptsThenFails) {
  core::SignatureIndex index = testing::Example21Index();
  auto attempts = std::make_shared<std::atomic<int>>(0);

  std::vector<SessionJob> jobs;
  SessionJob down;
  down.make = [attempts]() -> util::Result<Session> {
    attempts->fetch_add(1);
    return util::Status::Unavailable("store is down");
  };
  down.oracle = std::make_unique<core::GoalOracle>(core::JoinPredicate());
  jobs.push_back(std::move(down));

  SessionManager::Options options;
  options.factory_retry.max_attempts = 3;
  options.factory_retry.base_backoff = std::chrono::microseconds(100);
  SessionManager manager(options);
  auto results = manager.RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].ok());
  EXPECT_TRUE(results[0].status().IsUnavailable());
  EXPECT_EQ(attempts->load(), 3);  // max_attempts counts total tries.
}

TEST(SessionManagerTest, PermanentFactoryFailureIsNeverRetried) {
  auto attempts = std::make_shared<std::atomic<int>>(0);
  std::vector<SessionJob> jobs;
  SessionJob bad;
  bad.make = [attempts]() -> util::Result<Session> {
    attempts->fetch_add(1);
    return util::Status::InvalidArgument("no such instance");
  };
  bad.oracle = std::make_unique<core::GoalOracle>(core::JoinPredicate());
  jobs.push_back(std::move(bad));

  SessionManager::Options options;
  options.factory_retry.max_attempts = 5;
  auto results = SessionManager(options).RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(attempts->load(), 1);
}

}  // namespace
}  // namespace runtime
}  // namespace jinfer
