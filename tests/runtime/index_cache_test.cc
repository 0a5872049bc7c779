#include "runtime/index_cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "relational/csv.h"
#include "store/fingerprint.h"
#include "store/index_store.h"
#include "testing/paper_fixtures.h"
#include "util/failpoint.h"

namespace jinfer {
namespace runtime {
namespace {

TEST(FingerprintTest, EqualInstancesCollide) {
  InstanceFingerprint a = FingerprintInstance(testing::Example21R(),
                                              testing::Example21P(), true);
  InstanceFingerprint b = FingerprintInstance(testing::Example21R(),
                                              testing::Example21P(), true);
  EXPECT_EQ(a, b);
}

TEST(FingerprintTest, SensitiveToEveryComponent) {
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  const InstanceFingerprint base = FingerprintInstance(r, p, true);

  // One changed cell.
  auto r_cell = rel::Relation::Make("R0", {"A1", "A2"},
                                    {{0, 1}, {0, 2}, {2, 3}, {1, 0}});
  ASSERT_TRUE(r_cell.ok());
  EXPECT_FALSE(FingerprintInstance(*r_cell, p, true) == base);

  // Same cells, different runtime type (int 0 vs string "0").
  auto r_type = rel::Relation::Make("R0", {"A1", "A2"},
                                    {{"0", 1}, {0, 2}, {2, 2}, {1, 0}});
  ASSERT_TRUE(r_type.ok());
  EXPECT_FALSE(FingerprintInstance(*r_type, p, true) == base);

  // Renamed attribute.
  auto r_attr = rel::Relation::Make("R0", {"A1", "AX"},
                                    {{0, 1}, {0, 2}, {2, 2}, {1, 0}});
  ASSERT_TRUE(r_attr.ok());
  EXPECT_FALSE(FingerprintInstance(*r_attr, p, true) == base);

  // Renamed relation.
  auto r_name = rel::Relation::Make("RX", {"A1", "A2"},
                                    {{0, 1}, {0, 2}, {2, 2}, {1, 0}});
  ASSERT_TRUE(r_name.ok());
  EXPECT_FALSE(FingerprintInstance(*r_name, p, true) == base);

  // Swapped sides and flipped compression flag.
  EXPECT_FALSE(FingerprintInstance(p, r, true) == base);
  EXPECT_FALSE(FingerprintInstance(r, p, false) == base);
}

TEST(IndexCacheTest, SecondLookupSharesTheBuild) {
  IndexCache cache;
  auto first = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(first->get(), second->get());  // The same object, not a rebuild.
  EXPECT_EQ((*first)->num_classes(), testing::Example21Index().num_classes());

  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IndexCacheTest, DistinctInstancesGetDistinctEntries) {
  IndexCache cache;
  auto a = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  auto b = cache.GetOrBuild(testing::FlightTable(), testing::HotelTable());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().builds, 2u);
}

// Single-flight: racing requests for one fingerprint must run the build
// exactly once — every caller gets the same shared index object.
TEST(IndexCacheTest, SingleFlightUnderRacingRequests) {
  constexpr size_t kThreads = 8;
  constexpr size_t kLookupsPerThread = 16;

  IndexCache cache;
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();

  std::vector<const core::SignatureIndex*> seen(kThreads * kLookupsPerThread,
                                                nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kLookupsPerThread; ++i) {
        auto index = cache.GetOrBuild(r, p);
        ASSERT_TRUE(index.ok());
        seen[t * kLookupsPerThread + i] = index->get();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (const core::SignatureIndex* ptr : seen) EXPECT_EQ(ptr, seen[0]);

  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.lookups, kThreads * kLookupsPerThread);
  EXPECT_EQ(stats.hits, stats.lookups - 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IndexCacheTest, FailedBuildIsEvictedAndRetried) {
  IndexCache cache;
  auto empty = rel::Relation::Make("E", {"A"}, {});
  ASSERT_TRUE(empty.ok());

  auto first = cache.GetOrBuild(*empty, testing::Example21P());
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(cache.size(), 0u);  // The error is not cached.

  auto second = cache.GetOrBuild(*empty, testing::Example21P());
  EXPECT_FALSE(second.ok());

  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2u);  // Retried, not served from a poisoned entry.
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

// --- Tiering and the capacity bound (ISSUE 4) -------------------------

/// A second distinct instance with the same shape as Example 2.1.
rel::Relation AltR() {
  auto r = rel::Relation::Make("R0", {"A1", "A2"},
                               {{7, 8}, {8, 9}, {9, 7}, {7, 9}});
  JINFER_CHECK(r.ok(), "alt fixture");
  return std::move(r).ValueOrDie();
}

TEST(IndexCacheTest, TierIsReportedPerLookup) {
  IndexCache cache;
  auto first = cache.GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->tier, IndexTier::kBuilt);
  auto second = cache.GetOrBuildTiered(testing::Example21R(),
                                       testing::Example21P());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->tier, IndexTier::kMemory);
  EXPECT_EQ(first->index.get(), second->index.get());
}

// The PR 3 cache never evicted; the bound + sketch admission is the fix.
// A cold newcomer must not displace a hot resident, and a newcomer that
// *becomes* hot must eventually displace it.
TEST(IndexCacheTest, ColdNewcomerDoesNotDisplaceAHotResident) {
  IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});

  // Make the first instance hot: five lookups.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
  }
  // One access of a second instance: resolved and returned, not admitted.
  auto cold = cache.GetOrBuildTiered(AltR(), testing::Example21P());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->tier, IndexTier::kBuilt);
  EXPECT_EQ(cold->index->num_classes() > 0, true);  // Usable handout.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().rejected_admissions, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // The hot instance is still resident (memory-tier hit, no rebuild).
  auto hot = cache.GetOrBuildTiered(testing::Example21R(),
                                    testing::Example21P());
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->tier, IndexTier::kMemory);
}

TEST(IndexCacheTest, NewlyHotInstanceEventuallyEvictsTheColdOne) {
  IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
  ASSERT_TRUE(
      cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());

  // Hammer the second instance until its sketch frequency beats the
  // resident's (1 access); the second access is already strictly hotter.
  IndexTier last = IndexTier::kBuilt;
  for (int i = 0; i < 4 && last != IndexTier::kMemory; ++i) {
    auto got = cache.GetOrBuildTiered(AltR(), testing::Example21P());
    ASSERT_TRUE(got.ok());
    last = got->tier;
  }
  EXPECT_EQ(last, IndexTier::kMemory);  // Admitted and then hit.
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IndexCacheTest, ZeroCapacityOptsIntoUnbounded) {
  IndexCache cache(IndexCacheOptions{{}, /*capacity=*/0, nullptr});
  ASSERT_TRUE(
      cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
  ASSERT_TRUE(
      cache.GetOrBuild(testing::FlightTable(), testing::HotelTable()).ok());
  ASSERT_TRUE(cache.GetOrBuild(AltR(), testing::Example21P()).ok());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().rejected_admissions, 0u);
}

TEST(IndexCacheTest, StoreTierServesMappedAcrossCaches) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("jinfer_cache_store_test_" + std::to_string(::getpid())))
          .string();
  auto opened = store::IndexStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  auto shared_store =
      std::make_shared<store::IndexStore>(std::move(opened).ValueOrDie());

  {
    // First process/cache: miss → build → persist.
    IndexCache cache(IndexCacheOptions{{}, kDefaultIndexCacheCapacity,
                                       shared_store});
    auto built = cache.GetOrBuildTiered(testing::Example21R(),
                                        testing::Example21P());
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->tier, IndexTier::kBuilt);
    EXPECT_EQ(cache.stats().store_writes, 1u);
  }
  {
    // "Restarted" cache over the same store: miss → mmap, no rebuild.
    IndexCache cache(IndexCacheOptions{{}, kDefaultIndexCacheCapacity,
                                       shared_store});
    auto mapped = cache.GetOrBuildTiered(testing::Example21R(),
                                         testing::Example21P());
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(mapped->tier, IndexTier::kMapped);
    EXPECT_EQ(cache.stats().builds, 0u);
    EXPECT_EQ(cache.stats().mapped_loads, 1u);
    // The mapped index serves classification like a built one.
    EXPECT_EQ(mapped->index->num_classes(),
              testing::Example21Index().num_classes());
    // And the next lookup is a plain memory hit.
    auto again = cache.GetOrBuildTiered(testing::Example21R(),
                                        testing::Example21P());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->tier, IndexTier::kMemory);
    EXPECT_EQ(again->index.get(), mapped->index.get());
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// --- Failure-domain hardening (DESIGN.md §10) -------------------------

/// Tests that arm failpoints must disarm them even on assertion failure.
class IndexCacheChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { util::Failpoints::Reset(); }
  void TearDown() override { util::Failpoints::Reset(); }
};

TEST_F(IndexCacheChaosTest, TransientBuildFailureArmsBackoffThenRecovers) {
  IndexCacheOptions options;
  options.failure_backoff_base = std::chrono::milliseconds(30);
  IndexCache cache(options);
  ASSERT_TRUE(util::Failpoints::Arm("cache.build", "count:1").ok());

  // First lookup: the injected fault fails the build transiently.
  auto first = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsUnavailable());

  // Inside the backoff window: fail fast, no second build.
  auto second = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsUnavailable());
  IndexCacheStats mid = cache.stats();
  EXPECT_EQ(mid.builds, 1u);
  EXPECT_EQ(mid.failures, 1u);
  EXPECT_EQ(mid.backoff_arms, 1u);
  EXPECT_EQ(mid.fail_fast, 1u);

  // Past the window (the failpoint exhausted itself): a real, successful
  // retry — and the backoff state is wiped by the success.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto third = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.stats().builds, 2u);
  auto fourth = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(cache.stats().fail_fast, 1u);  // No new fail-fasts.
}

TEST_F(IndexCacheChaosTest, PermanentBuildFailureNeverArmsBackoff) {
  IndexCache cache;
  auto empty = rel::Relation::Make("E", {"A"}, {});
  ASSERT_TRUE(empty.ok());
  // Two immediate failures, both run for real: InvalidArgument is cheap to
  // reproduce and honest to report — backing off would only delay it.
  EXPECT_FALSE(cache.GetOrBuild(*empty, testing::Example21P()).ok());
  EXPECT_FALSE(cache.GetOrBuild(*empty, testing::Example21P()).ok());
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.backoff_arms, 0u);
  EXPECT_EQ(stats.fail_fast, 0u);
}

TEST_F(IndexCacheChaosTest, ZeroBackoffBaseDisablesFailFast) {
  IndexCacheOptions options;
  options.failure_backoff_base = std::chrono::milliseconds(0);
  IndexCache cache(options);
  ASSERT_TRUE(util::Failpoints::Arm("cache.build", "count:2").ok());
  EXPECT_FALSE(
      cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
  EXPECT_FALSE(
      cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 2u);  // Every lookup retried for real.
  EXPECT_EQ(stats.fail_fast, 0u);
  EXPECT_EQ(stats.backoff_arms, 0u);
}

TEST_F(IndexCacheChaosTest, TransientStoreLoadDegradesToABuild) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("jinfer_cache_degraded_test_" + std::to_string(::getpid())))
          .string();
  auto opened = store::IndexStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  auto shared_store =
      std::make_shared<store::IndexStore>(std::move(opened).ValueOrDie());

  {
    // Persist the index so the next cache would normally mmap it.
    IndexCache cache(IndexCacheOptions{{}, kDefaultIndexCacheCapacity,
                                       shared_store});
    ASSERT_TRUE(
        cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
    ASSERT_EQ(cache.stats().store_writes, 1u);
  }

  // Exhaust the store's whole mmap retry budget (default 3 attempts):
  // the load comes back kUnavailable, and the cache serves a fresh build
  // instead of failing the lookup.
  ASSERT_TRUE(util::Failpoints::Arm("store.load.mmap", "count:3").ok());
  IndexCache cache(IndexCacheOptions{{}, kDefaultIndexCacheCapacity,
                                     shared_store});
  auto got = cache.GetOrBuildTiered(testing::Example21R(),
                                    testing::Example21P());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->tier, IndexTier::kBuilt);
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.degraded_builds, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.mapped_loads, 0u);
  // The stored file was NOT quarantined — nothing was wrong with it.
  EXPECT_TRUE(shared_store->Contains(
      FingerprintInstance(testing::Example21R(), testing::Example21P(),
                          cache.options().build.compress)));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST_F(IndexCacheChaosTest, ClearRacingInFlightResolutionsNeverWedges) {
  // Builds are slowed (sleep mode trips never fail) so Clear() reliably
  // lands while resolutions are in flight. Every lookup must still get a
  // usable index or a clean error — never a hang or a poisoned entry.
  ASSERT_TRUE(util::Failpoints::Arm("cache.build", "sleep:2").ok());
  IndexCache cache;
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> successes{0};
  std::vector<std::thread> lookups;
  for (int t = 0; t < 4; ++t) {
    lookups.emplace_back([&] {
      while (!stop.load()) {
        auto got = cache.GetOrBuild(r, p);
        if (!got.ok() || got->get() == nullptr) {
          ADD_FAILURE() << "lookup wedged or failed: "
                        << got.status().ToString();
          stop.store(true);
          return;
        }
        ++successes;
      }
    });
  }
  std::thread clearer([&] {
    for (int i = 0; i < 50; ++i) {
      cache.Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  });
  clearer.join();
  for (auto& t : lookups) t.join();

  EXPECT_GT(successes.load(), 0u);
  // After the dust settles, the cache still works normally.
  util::Failpoints::Reset();
  auto after = cache.GetOrBuild(r, p);
  ASSERT_TRUE(after.ok());
}

// --- Aliases: an upload's digest names its resident index -------------

/// A distinct alias per tag, as store::FingerprintUpload would make one.
InstanceFingerprint Alias(uint64_t tag) { return {tag, ~tag}; }

uint64_t ProbesRecorded() {
  return obs::Registry::Global()
      .histogram(obs::kCacheProbeNanos)
      .Snapshot()
      .count;
}

TEST(FingerprintTest, UploadDigestIsSensitiveToEveryField) {
  const InstanceFingerprint base =
      store::FingerprintUpload("R", "A\n1\n", "P", "B\n1\n", true);
  EXPECT_EQ(base,
            store::FingerprintUpload("R", "A\n1\n", "P", "B\n1\n", true));
  EXPECT_NE(base,
            store::FingerprintUpload("S", "A\n1\n", "P", "B\n1\n", true));
  EXPECT_NE(base,
            store::FingerprintUpload("R", "A\n2\n", "P", "B\n1\n", true));
  EXPECT_NE(base,
            store::FingerprintUpload("R", "A\n1\n", "Q", "B\n1\n", true));
  EXPECT_NE(base,
            store::FingerprintUpload("R", "A\n1\n", "P", "B\n1\n\n", true));
  EXPECT_NE(base,
            store::FingerprintUpload("R", "A\n1\n", "P", "B\n1\n", false));
  // Field boundaries are part of the digest: moving a byte across one
  // changes it.
  EXPECT_NE(base,
            store::FingerprintUpload("RA", "\n1\n", "P", "B\n1\n", true));
  // The upload domain is tagged apart from instance fingerprints.
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  EXPECT_NE(store::FingerprintUpload(r.schema().relation_name(),
                                     rel::WriteRelationCsv(r),
                                     p.schema().relation_name(),
                                     rel::WriteRelationCsv(p), true),
            FingerprintInstance(r, p, true));
}

TEST(IndexCacheTest, AliasFindsTheResidentIndex) {
  IndexCache cache;
  auto built = cache.GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P(), Alias(1));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->tier, IndexTier::kBuilt);
  EXPECT_EQ(cache.FindResident(Alias(1)), built->index);
  EXPECT_EQ(cache.FindResident(Alias(2)), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IndexCacheTest, OnlyAnAliasHitCountsAndIsTimed) {
  IndexCache cache;
  ASSERT_TRUE(cache
                  .GetOrBuildTiered(testing::Example21R(),
                                    testing::Example21P(), Alias(1))
                  .ok());
  const IndexCacheStats before = cache.stats();
  const uint64_t probes_before = ProbesRecorded();
  EXPECT_EQ(cache.FindResident(Alias(2)), nullptr);
  EXPECT_EQ(cache.stats().lookups, before.lookups);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(ProbesRecorded(), probes_before);

  ASSERT_NE(cache.FindResident(Alias(1)), nullptr);
  EXPECT_EQ(cache.stats().lookups, before.lookups + 1);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(ProbesRecorded(), probes_before + 1);
  EXPECT_EQ(cache.stats().builds, before.builds);
}

TEST(IndexCacheTest, AliasHitsFeedTheAdmissionSketch) {
  // One slot. A newcomer looked up twice beats a resident looked up once
  // (NewlyHotInstanceEventuallyEvictsTheColdOne); two alias hits on the
  // resident keep it hotter, so the newcomer is refused both times.
  IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
  ASSERT_TRUE(cache
                  .GetOrBuildTiered(testing::Example21R(),
                                    testing::Example21P(), Alias(1))
                  .ok());
  ASSERT_TRUE(cache.GetOrBuild(AltR(), testing::Example21P()).ok());
  ASSERT_NE(cache.FindResident(Alias(1)), nullptr);
  ASSERT_NE(cache.FindResident(Alias(1)), nullptr);
  ASSERT_TRUE(cache.GetOrBuild(AltR(), testing::Example21P()).ok());
  EXPECT_EQ(cache.stats().rejected_admissions, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_NE(cache.FindResident(Alias(1)), nullptr);
}

TEST_F(IndexCacheChaosTest, FindResidentNeverWaitsOnAResolutionInFlight) {
  ASSERT_TRUE(util::Failpoints::Arm("cache.build", "sleep:300").ok());
  IndexCache cache;
  std::thread resolver([&] {
    EXPECT_TRUE(cache
                    .GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P(), Alias(1))
                    .ok());
  });
  while (cache.size() == 0) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(cache.FindResident(Alias(1)), nullptr);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(150));
  resolver.join();
  EXPECT_NE(cache.FindResident(Alias(1)), nullptr);
  EXPECT_EQ(cache.stats().lookups, 2u);  // The resolution and the hit.
}

TEST(IndexCacheTest, FindResidentNeverLoadsFromTheStore) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("jinfer_cache_alias_test_" + std::to_string(::getpid())))
          .string();
  auto opened = store::IndexStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  auto shared_store =
      std::make_shared<store::IndexStore>(std::move(opened).ValueOrDie());
  {
    IndexCache cache(IndexCacheOptions{{}, kDefaultIndexCacheCapacity,
                                       shared_store});
    ASSERT_TRUE(cache
                    .GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P(), Alias(1))
                    .ok());
    EXPECT_EQ(cache.stats().store_writes, 1u);
  }
  // A restarted cache over the same store: the index is on disk, not
  // resident, so its alias answers nothing and nothing is loaded.
  IndexCache cache(
      IndexCacheOptions{{}, kDefaultIndexCacheCapacity, shared_store});
  EXPECT_EQ(cache.FindResident(Alias(1)), nullptr);
  const IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.mapped_loads, 0u);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.lookups, 0u);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(IndexCacheTest, AliasLeavesWithItsEntry) {
  // Evicted: with one slot, a newcomer looked up twice displaces the
  // resident, alias and all.
  {
    IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
    ASSERT_TRUE(cache
                    .GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P(), Alias(1))
                    .ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(cache
                      .GetOrBuildTiered(AltR(), testing::Example21P(),
                                        Alias(2))
                      .ok());
    }
    ASSERT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.FindResident(Alias(1)), nullptr);
    EXPECT_NE(cache.FindResident(Alias(2)), nullptr);
  }
  // Refused admission: a one-lookup newcomer against an equally cold
  // resident is returned to its caller but not kept, nor is its alias.
  {
    IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
    ASSERT_TRUE(
        cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
    ASSERT_TRUE(
        cache.GetOrBuildTiered(AltR(), testing::Example21P(), Alias(2)).ok());
    ASSERT_EQ(cache.stats().rejected_admissions, 1u);
    EXPECT_EQ(cache.FindResident(Alias(2)), nullptr);
  }
  // Failed: the error is not cached, and neither is the alias.
  {
    IndexCache cache;
    auto empty = rel::Relation::Make("E", {"A"}, {});
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(
        cache.GetOrBuildTiered(*empty, testing::Example21P(), Alias(3)).ok());
    EXPECT_EQ(cache.FindResident(Alias(3)), nullptr);
    EXPECT_EQ(cache.size(), 0u);
  }
  // Cleared.
  {
    IndexCache cache;
    ASSERT_TRUE(cache
                    .GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P(), Alias(1))
                    .ok());
    cache.Clear();
    EXPECT_EQ(cache.FindResident(Alias(1)), nullptr);
    // The next resolution attaches it afresh.
    ASSERT_TRUE(cache
                    .GetOrBuildTiered(testing::Example21R(),
                                      testing::Example21P(), Alias(1))
                    .ok());
    EXPECT_NE(cache.FindResident(Alias(1)), nullptr);
  }
}

TEST(IndexCacheTest, LaterAliasReplacesTheFirst) {
  // Each entry holds one alias: a second spelling of the same instance
  // (here, found by a memory hit) takes its place.
  IndexCache cache;
  ASSERT_TRUE(cache
                  .GetOrBuildTiered(testing::Example21R(),
                                    testing::Example21P(), Alias(1))
                  .ok());
  auto hit = cache.GetOrBuildTiered(testing::Example21R(),
                                    testing::Example21P(), Alias(2));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->tier, IndexTier::kMemory);
  EXPECT_EQ(cache.FindResident(Alias(1)), nullptr);
  EXPECT_EQ(cache.FindResident(Alias(2)), hit->index);
  // A lookup without an alias leaves the entry's alias alone.
  ASSERT_TRUE(
      cache.GetOrBuild(testing::Example21R(), testing::Example21P()).ok());
  EXPECT_NE(cache.FindResident(Alias(2)), nullptr);
}

TEST(IndexCacheTest, AnAliasedLookupRecordsNoStampPair) {
  // An aliased lookup hands in its caller's fresh parse, which is never
  // handed in again: neither the build nor a later hit records its pair.
  IndexCache cache;
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  auto built = cache.GetOrBuildTiered(r, p, Alias(1));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->tier, IndexTier::kBuilt);
  EXPECT_EQ(cache.stamp_pairs(), 0u);
  auto hit = cache.GetOrBuildTiered(r, p, Alias(2));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->tier, IndexTier::kMemory);
  EXPECT_EQ(hit->index, built->index);
  EXPECT_EQ(cache.stamp_pairs(), 0u);
  EXPECT_EQ(cache.FindResident(Alias(2)), hit->index);
}

TEST(IndexCacheTest, ClearDropsEntriesButHandoutsSurvive) {
  IndexCache cache;
  auto index = cache.GetOrBuild(testing::Example21R(), testing::Example21P());
  ASSERT_TRUE(index.ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  // The handed-out shared_ptr keeps the index alive past the eviction.
  EXPECT_EQ((*index)->num_classes(), testing::Example21Index().num_classes());

  auto rebuilt = cache.GetOrBuild(testing::Example21R(),
                                  testing::Example21P());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(cache.stats().builds, 2u);
}

// --- Stamps: a lookup with the same objects skips the fingerprint ------

/// What a fresh build gives (r, p): the only index a lookup may serve.
void ExpectFreshBuild(const core::SignatureIndex& got, const rel::Relation& r,
                      const rel::Relation& p) {
  auto fresh = core::SignatureIndex::Build(r, p);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(got.num_classes(), fresh->num_classes());
  EXPECT_EQ(got.num_r_rows(), fresh->num_r_rows());
  EXPECT_EQ(got.num_p_rows(), fresh->num_p_rows());
  EXPECT_TRUE(std::ranges::equal(got.r_codes(), fresh->r_codes()));
  EXPECT_TRUE(std::ranges::equal(got.p_codes(), fresh->p_codes()));
  for (uint32_t c = 0; c < got.num_classes(); ++c) {
    EXPECT_EQ(got.cls(c).signature, fresh->cls(c).signature) << "class " << c;
    EXPECT_EQ(got.cls(c).count, fresh->cls(c).count) << "class " << c;
    EXPECT_EQ(got.cls(c).rep_r, fresh->cls(c).rep_r) << "class " << c;
    EXPECT_EQ(got.cls(c).rep_p, fresh->cls(c).rep_p) << "class " << c;
    EXPECT_EQ(got.cls(c).maximal, fresh->cls(c).maximal) << "class " << c;
  }
}

TEST(IndexCacheTest, AnAppendedRowIsNeverServedTheOldIndex) {
  IndexCache cache;
  rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  auto old_index = cache.GetOrBuild(r, p);
  ASSERT_TRUE(old_index.ok());

  // Through the row facade, then through a bare FinishRow.
  ASSERT_TRUE(r.AppendRow({3, 1}).ok());
  auto appended = cache.GetOrBuildTiered(r, p);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->tier, IndexTier::kBuilt);
  EXPECT_NE(appended->index, *old_index);
  ExpectFreshBuild(*appended->index, r, p);

  rel::ColumnTable& table = r.mutable_columns();
  table.AppendInt(2);
  table.AppendInt(0);
  table.FinishRow();
  auto finished = cache.GetOrBuildTiered(r, p);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->tier, IndexTier::kBuilt);
  ExpectFreshBuild(*finished->index, r, p);
  EXPECT_EQ(cache.stats().builds, 3u);
}

TEST(IndexCacheTest, ARelationAtADeadOnesAddressIsNotServedItsIndex) {
  // Same address, same row count, other cells: what an address-keyed memo
  // would serve stale.
  IndexCache cache;
  const rel::Relation p = testing::Example21P();
  std::optional<rel::Relation> r(testing::Example21R());
  const rel::Relation* address = &*r;
  ASSERT_TRUE(cache.GetOrBuild(*r, p).ok());
  r.reset();
  r.emplace(AltR());
  ASSERT_EQ(&*r, address);
  auto got = cache.GetOrBuildTiered(*r, p);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->tier, IndexTier::kBuilt);
  ExpectFreshBuild(*got->index, *r, p);
}

TEST(IndexCacheTest, ACopyReachesTheSameEntryWithNoBuild) {
  IndexCache cache;
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  auto first = cache.GetOrBuild(r, p);
  ASSERT_TRUE(first.ok());
  const rel::Relation copy = r;
  ASSERT_NE(copy.content_stamp(), r.content_stamp());
  auto by_copy = cache.GetOrBuildTiered(copy, p);
  ASSERT_TRUE(by_copy.ok());
  EXPECT_EQ(by_copy->tier, IndexTier::kMemory);
  EXPECT_EQ(by_copy->index, *first);
  // The copy's pair replaced the original's, which still reaches the entry.
  EXPECT_EQ(cache.stamp_pairs(), 1u);
  auto by_original = cache.GetOrBuildTiered(r, p);
  ASSERT_TRUE(by_original.ok());
  EXPECT_EQ(by_original->index, *first);
  EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(IndexCacheTest, AStampHitCountsAndIsTimedAsAFingerprintHit) {
  IndexCache cache;
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
  const rel::Relation copy = r;
  // The copy's first lookup is a fingerprint hit; its second, a stamp hit.
  for (int i = 0; i < 2; ++i) {
    const IndexCacheStats before = cache.stats();
    const uint64_t probes_before = ProbesRecorded();
    auto got = cache.GetOrBuildTiered(copy, p);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->tier, IndexTier::kMemory);
    const IndexCacheStats after = cache.stats();
    EXPECT_EQ(after.lookups, before.lookups + 1) << "lookup " << i;
    EXPECT_EQ(after.hits, before.hits + 1) << "lookup " << i;
    EXPECT_EQ(after.builds, before.builds) << "lookup " << i;
    EXPECT_EQ(ProbesRecorded(), probes_before + 1) << "lookup " << i;
  }
}

TEST(IndexCacheTest, StampHitsFeedTheAdmissionSketch) {
  // AliasHitsFeedTheAdmissionSketch, with stamp hits: two of them keep the
  // resident hotter than a newcomer looked up twice.
  IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
  ASSERT_TRUE(cache.GetOrBuild(AltR(), p).ok());
  ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
  ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
  ASSERT_TRUE(cache.GetOrBuild(AltR(), p).ok());
  EXPECT_EQ(cache.stats().rejected_admissions, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().builds, 3u);
}

TEST(IndexCacheTest, StampPairLeavesWithItsEntry) {
  const rel::Relation r = testing::Example21R();
  const rel::Relation p = testing::Example21P();
  const rel::Relation alt = AltR();
  // Evicted: with one slot, a newcomer looked up twice displaces the
  // resident; only the newcomer's pair is left.
  {
    IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
    ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
    ASSERT_TRUE(cache.GetOrBuild(alt, p).ok());
    ASSERT_TRUE(cache.GetOrBuild(alt, p).ok());
    ASSERT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stamp_pairs(), 1u);
    auto again = cache.GetOrBuildTiered(r, p);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->tier, IndexTier::kBuilt);
  }
  // Refused admission: the newcomer is returned but not kept, nor its pair.
  {
    IndexCache cache(IndexCacheOptions{{}, /*capacity=*/1, nullptr});
    ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
    ASSERT_TRUE(cache.GetOrBuild(alt, p).ok());
    ASSERT_EQ(cache.stats().rejected_admissions, 1u);
    EXPECT_EQ(cache.stamp_pairs(), 1u);
  }
  // Failed: the error is not cached, and neither is the pair.
  {
    IndexCache cache;
    auto empty = rel::Relation::Make("E", {"A"}, {});
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(cache.GetOrBuild(*empty, p).ok());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stamp_pairs(), 0u);
  }
  // Cleared; the next resolution records it afresh.
  {
    IndexCache cache;
    ASSERT_TRUE(cache.GetOrBuild(r, p).ok());
    cache.Clear();
    EXPECT_EQ(cache.stamp_pairs(), 0u);
    auto again = cache.GetOrBuildTiered(r, p);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->tier, IndexTier::kBuilt);
    EXPECT_EQ(cache.stamp_pairs(), 1u);
  }
}

}  // namespace
}  // namespace runtime
}  // namespace jinfer
