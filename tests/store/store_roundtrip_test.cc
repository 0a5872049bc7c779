// Round-trip property tests for the persistent store: for random
// instances, an index persisted and mmap-loaded back must be bit-identical
// to the freshly built one in every observable — classification, session
// transcripts, fingerprints — at 1 and 4 build threads (the ISSUE 4
// acceptance property). Plus the cross-process pair CI drives: one gtest
// invocation persists, a second (fresh) process reloads.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/oracle.h"
#include "core/strategy.h"
#include "runtime/session.h"
#include "store/fingerprint.h"
#include "store/index_file.h"
#include "store/index_store.h"
#include "testing/paper_fixtures.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace store {
namespace {

namespace fs = std::filesystem;

/// A store rooted in a fresh temporary directory, removed on destruction.
struct ScopedStore {
  ScopedStore() {
    dir = (fs::temp_directory_path() /
           ("jinfer_store_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this))))
              .string();
    auto opened = IndexStore::Open(dir);
    JINFER_CHECK(opened.ok(), "open scoped store");
    st = std::make_unique<IndexStore>(std::move(opened).ValueOrDie());
  }
  ~ScopedStore() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string dir;
  std::unique_ptr<IndexStore> st;
};

void ExpectIndexesBitIdentical(const core::SignatureIndex& built,
                               const core::SignatureIndex& mapped) {
  ASSERT_EQ(built.num_classes(), mapped.num_classes());
  EXPECT_EQ(built.num_tuples(), mapped.num_tuples());
  EXPECT_EQ(built.num_r_rows(), mapped.num_r_rows());
  EXPECT_EQ(built.num_p_rows(), mapped.num_p_rows());
  EXPECT_EQ(built.compressed(), mapped.compressed());
  EXPECT_EQ(built.omega().size(), mapped.omega().size());
  for (size_t a = 0; a < built.num_classes(); ++a) {
    const auto& cb = built.cls(static_cast<uint32_t>(a));
    const auto& cm = mapped.cls(static_cast<uint32_t>(a));
    ASSERT_EQ(cb.signature, cm.signature) << "class " << a;
    ASSERT_EQ(cb.count, cm.count) << "class " << a;
    ASSERT_EQ(cb.rep_r, cm.rep_r) << "class " << a;
    ASSERT_EQ(cb.rep_p, cm.rep_p) << "class " << a;
    ASSERT_EQ(cb.maximal, cm.maximal) << "class " << a;
    // The rebuilt signature→class map agrees.
    EXPECT_EQ(mapped.ClassOfSignature(cb.signature),
              built.ClassOfSignature(cb.signature));
  }
  // The visiting orders BU and TD read are derived again on load.
  EXPECT_TRUE(std::ranges::equal(built.ClassesBySize(),
                                 mapped.ClassesBySize()));
  EXPECT_TRUE(std::ranges::equal(built.MaximalClasses(),
                                 mapped.MaximalClasses()));
  // Per-tuple signatures recomputed from the mapped code sections agree.
  for (size_t i = 0; i < built.num_r_rows(); ++i) {
    for (size_t j = 0; j < built.num_p_rows(); ++j) {
      ASSERT_EQ(built.SignatureOfPair(i, j), mapped.SignatureOfPair(i, j));
    }
  }
}

/// Runs one session over `index` and returns the result (TD is
/// deterministic, so transcripts are comparable field by field).
core::InferenceResult RunSession(
    std::shared_ptr<const core::SignatureIndex> index,
    core::JoinPredicate goal, core::StrategyKind kind) {
  runtime::Session session(std::move(index), core::MakeStrategy(kind));
  core::GoalOracle oracle(goal);
  while (auto question = session.NextQuestion()) {
    JINFER_CHECK(
        session.Answer(oracle.LabelClass(session.index(), *question)).ok(),
        "goal oracle must be consistent");
  }
  return session.Result();
}

void ExpectSameTranscript(const core::InferenceResult& a,
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

TEST(StoreRoundTripTest, RandomInstancesAreBitIdenticalAfterReload) {
  ScopedStore scoped;
  const std::vector<workload::SyntheticConfig> configs = {
      {2, 2, 12, 4}, {3, 3, 30, 8}, {3, 2, 25, 5}};
  for (int threads : {1, 4}) {
    for (size_t c = 0; c < configs.size(); ++c) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        auto inst = workload::GenerateSynthetic(configs[c], 7000 + seed);
        ASSERT_TRUE(inst.ok());
        auto built = core::SignatureIndex::Build(
            inst->r, inst->p, {.compress = true, .threads = threads});
        ASSERT_TRUE(built.ok());
        const InstanceFingerprint fp =
            FingerprintInstance(inst->r, inst->p, true);

        ASSERT_TRUE(scoped.st->Put(*built, fp).ok());
        auto mapped = scoped.st->Load(fp);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

        ExpectIndexesBitIdentical(*built, **mapped);

        // Same questions, same answers, same predicate on both copies, for
        // strategies exercising maximality (TD) and certainty sweeps (BU).
        auto built_shared = std::make_shared<const core::SignatureIndex>(
            std::move(built).ValueOrDie());
        for (auto kind :
             {core::StrategyKind::kTopDown, core::StrategyKind::kBottomUp}) {
          for (size_t goal_bit : {size_t{0}, size_t{1}}) {
            core::JoinPredicate goal =
                core::JoinPredicate::Singleton(goal_bit);
            ExpectSameTranscript(RunSession(built_shared, goal, kind),
                                 RunSession(*mapped, goal, kind));
          }
        }

        // The file is content-addressed by the same fingerprint the
        // in-memory cache uses: a second Put is a no-op, and the header
        // fingerprint survives the trip.
        ASSERT_TRUE(scoped.st->Put(*built_shared, fp).ok());
      }
    }
  }
  const IndexStoreStats stats = scoped.st->stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_GT(stats.writes, 0u);
  // threads=4 re-put the same fingerprints: all skipped, byte-identical.
  EXPECT_GT(stats.skipped_writes, 0u);
}

TEST(StoreRoundTripTest, ParallelAndSerialBuildsPersistIdenticalFiles) {
  ScopedStore scoped;
  auto inst = workload::GenerateSynthetic({3, 3, 40, 8}, 99);
  ASSERT_TRUE(inst.ok());
  auto serial = core::SignatureIndex::Build(inst->r, inst->p,
                                            {.compress = true, .threads = 1});
  auto parallel = core::SignatureIndex::Build(
      inst->r, inst->p, {.compress = true, .threads = 4});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  const InstanceFingerprint fp = FingerprintInstance(inst->r, inst->p, true);
  EXPECT_EQ(SerializeIndexFile(*serial, fp), SerializeIndexFile(*parallel, fp))
      << "thread count leaked into the persisted bytes";
}

TEST(StoreRoundTripTest, MappedIndexOutlivesTheStore) {
  auto scoped = std::make_unique<ScopedStore>();
  auto built = core::SignatureIndex::Build(testing::Example21R(),
                                           testing::Example21P());
  ASSERT_TRUE(built.ok());
  const InstanceFingerprint fp = FingerprintInstance(
      testing::Example21R(), testing::Example21P(), true);
  ASSERT_TRUE(scoped->st->Put(*built, fp).ok());
  auto mapped = scoped->st->Load(fp);
  ASSERT_TRUE(mapped.ok());

  // Destroying the store object must not unmap handed-out indexes (the
  // mapping is owned by the index); deleting the *files* afterwards is
  // fine too — the pages stay mapped until the last shared_ptr drops.
  scoped.reset();
  EXPECT_EQ((*mapped)->num_classes(), built->num_classes());
  EXPECT_EQ((*mapped)->cls(0).signature, built->cls(0).signature);
}

// --- The cross-process pair the CI store-roundtrip job drives. ---------
//
// Both tests skip unless JINFER_STORE_RT_DIR is set. CI runs this binary
// twice against one directory: first --gtest_filter=*PersistPhase (builds
// and persists), then --gtest_filter=*ReloadPhase in a brand-new process
// (mmap-loads and re-verifies) — proving the file, not shared process
// state, carries the index.

const workload::SyntheticConfig kFreshProcessConfig{3, 3, 40, 8};
constexpr uint64_t kFreshProcessSeed = 20140324;

TEST(FreshProcessRoundTrip, PersistPhase) {
  const char* dir = std::getenv("JINFER_STORE_RT_DIR");
  if (dir == nullptr) GTEST_SKIP() << "JINFER_STORE_RT_DIR not set";
  auto store = IndexStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto inst = workload::GenerateSynthetic(kFreshProcessConfig,
                                          kFreshProcessSeed);
  ASSERT_TRUE(inst.ok());
  auto built = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(built.ok());
  const InstanceFingerprint fp = FingerprintInstance(inst->r, inst->p, true);
  ASSERT_TRUE(store->Put(*built, fp).ok());
  ASSERT_TRUE(store->Contains(fp));
}

TEST(FreshProcessRoundTrip, ReloadPhase) {
  const char* dir = std::getenv("JINFER_STORE_RT_DIR");
  if (dir == nullptr) GTEST_SKIP() << "JINFER_STORE_RT_DIR not set";
  auto store = IndexStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Regenerate the instance (deterministic in (config, seed)) and rebuild
  // the reference index; the stored one must match it bit for bit.
  auto inst = workload::GenerateSynthetic(kFreshProcessConfig,
                                          kFreshProcessSeed);
  ASSERT_TRUE(inst.ok());
  const InstanceFingerprint fp = FingerprintInstance(inst->r, inst->p, true);
  ASSERT_TRUE(store->Contains(fp))
      << "run the PersistPhase test (in another process) first";
  auto mapped = store->Load(fp);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto built = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(built.ok());
  ExpectIndexesBitIdentical(*built, **mapped);
  auto built_shared = std::make_shared<const core::SignatureIndex>(
      std::move(built).ValueOrDie());
  ExpectSameTranscript(
      RunSession(built_shared, core::JoinPredicate::Singleton(0),
                 core::StrategyKind::kTopDown),
      RunSession(*mapped, core::JoinPredicate::Singleton(0),
                 core::StrategyKind::kTopDown));
}

}  // namespace
}  // namespace store
}  // namespace jinfer
