// Chaos suite (DESIGN.md §10): property tests that must hold under ANY
// all-transient fault schedule — the ones armed below, and any ambient
// JINFER_FAILPOINTS schedule the CI chaos job layers on top. Unlike the
// unit suites, these tests never Reset() the registry: arming is additive
// (same-name arms replace, env-armed extras stay live), and fault-free
// baselines/validation run under Failpoints::PauseScope instead of
// disarming. The properties:
//
//   1. Transcripts are bit-identical to the fault-free baseline — faults
//      may delay a session, never change what it asks or concludes.
//   2. Single-flight never wedges: a failed resolution is delivered and
//      evicted; no caller blocks forever on a poisoned entry.
//   3. The store never exposes a partial file: every published .jidx
//      validates, and no temp files survive a faulted Put.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "core/oracle.h"
#include "core/signature_index.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "runtime/session_manager.h"
#include "store/index_store.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "workload/experiment.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace runtime {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          (tag + "_" + std::to_string(::getpid())))
      .string();
}

struct Spec {
  core::StrategyKind kind;
  uint64_t seed;
  core::JoinPredicate goal;
};

std::vector<Spec> MakeSpecs(const core::SignatureIndex& index) {
  auto goals = workload::SampleGoalsBySize(index, /*max_per_size=*/2,
                                           /*seed=*/424242);
  JINFER_CHECK(goals.ok(), "goals");
  std::vector<Spec> specs;
  uint64_t seed = 0;
  for (const auto& [size, bucket_goals] : *goals) {
    for (const core::JoinPredicate& goal : bucket_goals) {
      for (core::StrategyKind kind :
           {core::StrategyKind::kBottomUp, core::StrategyKind::kTopDown,
            core::StrategyKind::kLookahead1}) {
        specs.push_back(Spec{kind, ++seed, goal});
      }
    }
  }
  return specs;
}

void ExpectSameResult(const core::InferenceResult& a,
                      const core::InferenceResult& b, size_t job) {
  EXPECT_EQ(a.predicate, b.predicate) << "job " << job;
  EXPECT_EQ(a.num_interactions, b.num_interactions) << "job " << job;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << "job " << job;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].cls, b.trace[i].cls)
        << "job " << job << " interaction " << i;
    EXPECT_EQ(a.trace[i].label, b.trace[i].label)
        << "job " << job << " interaction " << i;
  }
}

// Property 1 + 2: a store-backed SessionManager under a dense all-transient
// schedule — injected build failures, mmap failures, publish failures, and
// scheduler slice faults — still completes every job with a transcript
// bit-identical to the fault-free baseline, at 1 and at 4 threads.
TEST(ChaosTest, TransientFaultsPreserveTranscripts) {
  auto inst = workload::GenerateSynthetic({3, 3, 30, 6}, 99);
  ASSERT_TRUE(inst.ok());
  auto index = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());
  const std::vector<Spec> specs = MakeSpecs(*index);
  ASSERT_GE(specs.size(), 6u);

  // Fault-free baseline, no cache or store involved.
  std::vector<core::InferenceResult> baseline;
  for (const Spec& spec : specs) {
    Session session(*index, core::MakeStrategy(spec.kind, spec.seed));
    core::GoalOracle oracle(spec.goal);
    while (std::optional<core::ClassId> question = session.NextQuestion()) {
      ASSERT_TRUE(session.Answer(oracle.LabelClass(*index, *question)).ok());
    }
    baseline.push_back(session.Result());
  }

  const std::string dir = TempDir("jinfer_chaos_transcripts");
  ASSERT_TRUE(
      util::Failpoints::ArmFromSpec("cache.build=prob:0.3:17;"
                                    "store.load.mmap=prob:0.3:23;"
                                    "store.put.fsync=every:2;"
                                    "manager.step=prob:0.1:29")
          .ok());

  for (int threads : {1, 4}) {
    auto opened = store::IndexStore::Open(dir + std::to_string(threads));
    ASSERT_TRUE(opened.ok());

    SessionManager::Options options;
    options.threads = threads;
    options.steps_per_slice = 1;  // Finest interleaving, most slice faults.
    options.cache_options.store =
        std::make_shared<store::IndexStore>(std::move(opened).ValueOrDie());
    // Short backoff windows and unlimited factory retries: every fault is
    // transient by contract, so jobs must always get through eventually.
    options.cache_options.failure_backoff_base = std::chrono::milliseconds(1);
    options.cache_options.failure_backoff_max = std::chrono::milliseconds(10);
    options.factory_retry.max_attempts = 0;
    options.factory_retry.base_backoff = std::chrono::microseconds(200);
    options.factory_retry.max_backoff = std::chrono::microseconds(2000);
    SessionManager manager(options);

    std::vector<SessionJob> jobs;
    for (const Spec& spec : specs) {
      SessionJob job;
      job.make = [&manager, &inst, spec]() -> util::Result<Session> {
        JINFER_ASSIGN_OR_RETURN(auto shared,
                                manager.cache().GetOrBuild(inst->r, inst->p));
        return Session(std::move(shared),
                       core::MakeStrategy(spec.kind, spec.seed));
      };
      job.oracle = std::make_unique<core::GoalOracle>(spec.goal);
      jobs.push_back(std::move(job));
    }

    auto results = manager.RunAll(std::move(jobs));
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << "job " << i << " at " << threads
          << " threads: " << results[i].status().ToString();
      ExpectSameResult(baseline[i], *results[i], i);
    }
  }

  std::error_code ec;
  for (int threads : {1, 4}) fs::remove_all(dir + std::to_string(threads), ec);
}

// Property 2, pointed at the cache directly: racing lookups on one
// fingerprint under a dense injected build-failure schedule either get the
// shared index or a clean transient error — never a hang — and the
// fingerprint recovers fully once faults stop.
TEST(ChaosTest, SingleFlightNeverWedgesUnderBuildFaults) {
  ASSERT_TRUE(util::Failpoints::Arm("cache.build", "prob:0.5:7").ok());

  IndexCacheOptions options;
  options.failure_backoff_base = std::chrono::milliseconds(1);
  options.failure_backoff_max = std::chrono::milliseconds(10);
  IndexCache cache(options);
  auto inst = workload::GenerateSynthetic({2, 2, 20, 5}, 5);
  ASSERT_TRUE(inst.ok());

  std::atomic<uint64_t> oks{0}, transients{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        auto got = cache.GetOrBuild(inst->r, inst->p);
        if (got.ok()) {
          ++oks;
        } else if (util::IsTransient(got.status())) {
          ++transients;
        } else {
          ADD_FAILURE() << "non-transient escape: "
                        << got.status().ToString();
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(oks + transients, 8u * 30u);  // Every lookup returned.

  // Faults off: the fingerprint must serve (past any residual backoff).
  util::Failpoints::PauseScope pause;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto final_lookup = cache.GetOrBuild(inst->r, inst->p);
  EXPECT_TRUE(final_lookup.ok());
}

// Property 3: a Put bombarded with publish-path faults (fsync, rename,
// dirsync) either reports success — in which case the file is present and
// valid — or fails cleanly; either way the store directory contains no
// temp files and no invalid .jidx afterwards.
TEST(ChaosTest, NoPartialFilesUnderPutFaults) {
  const std::string dir = TempDir("jinfer_chaos_put");
  auto opened = store::IndexStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  store::IndexStore store = std::move(opened).ValueOrDie();

  ASSERT_TRUE(
      util::Failpoints::ArmFromSpec("store.put.fsync=every:2;"
                                    "store.put.rename=every:3;"
                                    "store.put.dirsync=every:2")
          .ok());

  std::vector<store::InstanceFingerprint> succeeded;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto inst = workload::GenerateSynthetic({2, 2, 15, 4}, seed);
    ASSERT_TRUE(inst.ok());
    auto index = core::SignatureIndex::Build(inst->r, inst->p);
    ASSERT_TRUE(index.ok());
    const auto fingerprint =
        store::FingerprintInstance(inst->r, inst->p, /*compress=*/true);
    util::Status put = store.Put(*index, fingerprint);
    if (put.ok()) {
      succeeded.push_back(fingerprint);
    } else {
      EXPECT_TRUE(util::IsTransient(put)) << put.ToString();
    }
  }

  // Validation runs fault-free: the invariants are about what the faulted
  // Puts left on disk, not about whether validation itself can fault.
  util::Failpoints::PauseScope pause;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory()) continue;  // quarantine/ (should stay empty).
    const std::string name = entry.path().filename().string();
    EXPECT_NE(name.rfind(".tmp-", 0), 0u)
        << "leaked temp file: " << name;
  }
  for (const auto& fingerprint : succeeded) {
    auto loaded = store.Load(fingerprint);
    EXPECT_TRUE(loaded.ok())
        << "Put reported durable success but Load failed: "
        << loaded.status().ToString();
  }
  EXPECT_EQ(store.stats().quarantined, 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Property 1 for the packed word-kernel sweeps at scale: a multi-word
// (|Omega| = 72, 900-class) L1S session and the 18-class OPT minimax
// session, run through the manager under slice faults at 1 and 4 threads,
// reproduce their fault-free transcripts bit-for-bit. Guards the batched
// u+/u- sweep and the delta-frame apply/undo path: a fault-induced retry
// or reordering that perturbed candidate evaluation would change what the
// session asks.
TEST(ChaosTest, LargeOmegaTranscriptsSurviveFaults) {
  struct Case {
    workload::SyntheticConfig config;
    uint64_t seed;
    core::StrategyKind kind;
  };
  const std::vector<Case> cases = {
      {{9, 8, 30, 3}, 101, core::StrategyKind::kLookahead1},
      {{3, 2, 8, 4}, 20140324, core::StrategyKind::kOptimal},
  };

  std::vector<std::shared_ptr<core::SignatureIndex>> indexes;
  std::vector<core::JoinPredicate> goals;
  std::vector<core::InferenceResult> baseline;
  for (const Case& c : cases) {
    auto inst = workload::GenerateSynthetic(c.config, c.seed);
    ASSERT_TRUE(inst.ok());
    auto index = core::SignatureIndex::Build(inst->r, inst->p);
    ASSERT_TRUE(index.ok());
    indexes.push_back(
        std::make_shared<core::SignatureIndex>(std::move(*index)));
    goals.push_back(indexes.back()->omega().PredicateFromPairs({{0, 0},
                                                                {1, 1}}));
    // Baseline on the direct session path, which crosses no failpoints.
    Session session(*indexes.back(), core::MakeStrategy(c.kind));
    core::GoalOracle oracle(goals.back());
    while (std::optional<core::ClassId> question = session.NextQuestion()) {
      ASSERT_TRUE(
          session.Answer(oracle.LabelClass(*indexes.back(), *question)).ok());
    }
    baseline.push_back(session.Result());
  }
  ASSERT_GE(baseline[0].num_interactions, 8u);  // A real multi-word session.

  ASSERT_TRUE(util::Failpoints::Arm("manager.step", "prob:0.2:37").ok());
  for (int threads : {1, 4}) {
    std::vector<SessionJob> jobs;
    for (size_t i = 0; i < cases.size(); ++i) {
      SessionJob job;
      auto index = indexes[i];
      auto kind = cases[i].kind;
      job.make = [index, kind] {
        return util::Result<Session>(Session(*index, core::MakeStrategy(kind)));
      };
      job.oracle = std::make_unique<core::GoalOracle>(goals[i]);
      jobs.push_back(std::move(job));
    }
    SessionManager::Options options;
    options.threads = threads;
    options.steps_per_slice = 1;
    SessionManager manager(options);
    auto results = manager.RunAll(std::move(jobs));
    ASSERT_EQ(results.size(), cases.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << "case " << i << " at " << threads
          << " threads: " << results[i].status().ToString();
      ExpectSameResult(baseline[i], *results[i], i);
    }
  }
}

}  // namespace
}  // namespace runtime
}  // namespace jinfer
