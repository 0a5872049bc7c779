// Registry, counter/gauge/histogram semantics, the quantile arithmetic the
// exposition layer relies on, and the ownership contract behind every
// subsystem's stats() (DESIGN.md §13.1). The concurrency tests pin the
// wait-free contract: sharded increments lose nothing under 8 writers,
// readers only ever see sums of completed relaxed adds, and a snapshot
// racing an owner's destruction never sees its series drop.

#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace jinfer {
namespace obs {
namespace {

class MetricsTest : public ::testing::Test {};

/// `name`'s series in a snapshot of `registry`, checking that it is the
/// only one: owners never split a name into labelled series.
MetricSnapshot Series(const Registry& registry, std::string_view name) {
  MetricSnapshot found;
  int matches = 0;
  for (const MetricSnapshot& m : registry.Snapshot()) {
    if (m.name != name) continue;
    found = m;
    ++matches;
  }
  EXPECT_EQ(matches, 1) << name;
  return found;
}

TEST_F(MetricsTest, CounterSumsConcurrentIncrementsExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(MetricsTest, CounterIncByNAccumulates) {
  Counter counter;
  counter.Inc(3);
  counter.Inc(0);
  counter.Inc(39);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST_F(MetricsTest, GaugeSet) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(0);
  EXPECT_EQ(gauge.Value(), 0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  EXPECT_EQ(HistogramBucket(7), 3u);
  EXPECT_EQ(HistogramBucket(8), 4u);
  EXPECT_EQ(HistogramBucket((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(HistogramBucket(uint64_t{1} << 63), 64u);
  EXPECT_EQ(HistogramBucket(UINT64_MAX), 64u);

  EXPECT_EQ(HistogramSnapshot::BucketLower(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketLower(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketLower(4), 8u);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(4), 15u);
  EXPECT_EQ(HistogramSnapshot::BucketLower(64), uint64_t{1} << 63);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(64), UINT64_MAX);
}

TEST_F(MetricsTest, HistogramRecordsExtremesWithoutLoss) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(UINT64_MAX);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[64], 1u);
  EXPECT_EQ(snap.sum, UINT64_MAX);  // 0 + max, wrap-free.
}

TEST_F(MetricsTest, QuantileGoldens) {
  // One sample per bucket 1/2/3: values 1, 2, 4. Rank selection is
  // ceil(q*count) clamped to >= 1; interpolation is the rank's position
  // among the bucket's own samples — all deterministic, so exact doubles.
  Histogram histogram;
  histogram.Record(1);
  histogram.Record(2);
  histogram.Record(4);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 7u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);   // rank 1 -> bucket 1.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 3.0);   // rank 2 -> top of [2,3].
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 7.0);  // rank 3 -> top of [4,7].
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 7.0);
}

TEST_F(MetricsTest, QuantileInterpolatesWithinABucket) {
  // 100 samples all in bucket 10 ([512, 1023]): p50 sits halfway up the
  // bucket, p99 at the 99% position — linear interpolation, not midpoint.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(1000);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 512.0 + 511.0 * 0.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 512.0 + 511.0 * 0.99);
}

TEST_F(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Quantile(0.5), 0.0);
}

TEST_F(MetricsTest, HistogramSumsConcurrentRecordsExactly) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (auto& t : pool) t.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Sum of t+1 for t in [0, 8) times kPerThread.
  EXPECT_EQ(snap.sum, kPerThread * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

TEST_F(MetricsTest, OwnersKeepTheirOwnValuesAndSnapshotSumsThem) {
  // Two live owners and one destroyed owner of one name, plus a direct
  // registration: each owner reads only what it counted (per-instance
  // stats() stay isolated), and the series is the sum of all of it.
  Registry registry;
  OwnedCounter first("test_owned_total", registry);
  {
    OwnedCounter destroyed("test_owned_total", registry);
    destroyed.Inc(5);
  }
  OwnedCounter second("test_owned_total", registry);
  first.Inc(3);
  second.Inc(7);
  registry.counter("test_owned_total").Inc(11);
  EXPECT_EQ(first.Value(), 3u);
  EXPECT_EQ(second.Value(), 7u);
  const MetricSnapshot series = Series(registry, "test_owned_total");
  EXPECT_EQ(series.kind, MetricKind::kCounter);
  EXPECT_EQ(series.counter, 3u + 5u + 7u + 11u);
}

TEST_F(MetricsTest, CounterSeriesDoesNotDropWhenAnOwnerIsDestroyed) {
  Registry registry;
  auto owner = std::make_unique<OwnedCounter>("test_retire_total", registry);
  owner->Inc(4);
  EXPECT_EQ(Series(registry, "test_retire_total").counter, 4u);
  owner.reset();
  EXPECT_EQ(Series(registry, "test_retire_total").counter, 4u);
  // A successor starts from zero; the series keeps counting from 4.
  OwnedCounter successor("test_retire_total", registry);
  successor.Inc();
  EXPECT_EQ(successor.Value(), 1u);
  EXPECT_EQ(Series(registry, "test_retire_total").counter, 5u);
}

TEST_F(MetricsTest, GaugeLevelLeavesWithItsOwner) {
  Registry registry;
  OwnedGauge survivor("test_owned_level", registry);
  survivor.Set(2);
  {
    OwnedGauge transient("test_owned_level", registry);
    transient.Set(3);
    EXPECT_EQ(Series(registry, "test_owned_level").gauge, 5);
  }
  EXPECT_EQ(Series(registry, "test_owned_level").gauge, 2);
}

TEST_F(MetricsTest, SnapshotRacingOwnerDestructionIsMonotoneAndExact) {
  // Owners are born, count and die on two threads while the main thread
  // snapshots: the series must never run backwards (a dying owner's total
  // is either still in the owner or already retired, never neither) and
  // must end exact. Part of the TSan job's obs suite.
  Registry registry;
  constexpr int kChurners = 2;
  constexpr int kOwnersPerThread = 2000;
  constexpr uint64_t kIncsPerOwner = 50;
  std::atomic<bool> go{false};
  std::atomic<int> running{kChurners};
  std::vector<std::thread> churners;
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&registry, &go, &running] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kOwnersPerThread; ++i) {
        OwnedCounter owner("test_owned_race_total", registry);
        for (uint64_t n = 0; n < kIncsPerOwner; ++n) owner.Inc();
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last = 0;
  bool monotone = true;
  go.store(true);
  while (running.load() > 0) {
    for (const MetricSnapshot& m : registry.Snapshot()) {
      if (m.name != "test_owned_race_total") continue;
      if (m.counter < last) monotone = false;
      last = m.counter;
    }
  }
  for (std::thread& t : churners) t.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(Series(registry, "test_owned_race_total").counter,
            kChurners * kOwnersPerThread * kIncsPerOwner);
}

TEST_F(MetricsTest, LocalHistogramMergeMatchesDirectRecording) {
  // Batched recording must be observationally identical to direct
  // recording: same per-bucket counts, sum, count and quantiles.
  Histogram direct;
  Histogram batched;
  LocalHistogram local;
  const uint64_t samples[] = {0, 1, 7, 8, 9, 1023, 1024, 4096, 4097, 1u << 20};
  for (uint64_t v : samples) {
    direct.Record(v);
    local.Record(v);
  }
  EXPECT_EQ(local.count(), 10u);
  batched.Merge(local);
  EXPECT_EQ(local.count(), 0u);  // Merge consumes the batch.
  const HistogramSnapshot a = direct.Snapshot();
  const HistogramSnapshot b = batched.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST_F(MetricsTest, LocalHistogramReusableAcrossMerges) {
  // The session hot path merges every few dozen samples into the same
  // accumulator object; totals must accumulate, never double-count.
  Histogram shared;
  LocalHistogram local;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t v = 0; v < 100; ++v) local.Record(v);
    shared.Merge(local);
  }
  const HistogramSnapshot snap = shared.Snapshot();
  EXPECT_EQ(snap.count, 300u);
  EXPECT_EQ(snap.sum, 3u * (99 * 100 / 2));
}

TEST_F(MetricsTest, LocalHistogramMoveResetsSourceSoFlushIsNoOp) {
  Histogram shared;
  LocalHistogram a;
  a.Record(42);
  a.Record(7);
  LocalHistogram b = std::move(a);
  shared.Merge(a);  // Moved-from flush: must contribute nothing.
  EXPECT_EQ(shared.Snapshot().count, 0u);
  shared.Merge(b);
  const HistogramSnapshot snap = shared.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 49u);
}

TEST_F(MetricsTest, RegistryReturnsSameObjectForSameName) {
  Registry& registry = Registry::Global();
  Counter& a = registry.counter("test_metrics_same_name_total");
  Counter& b = registry.counter("test_metrics_same_name_total");
  EXPECT_EQ(&a, &b);
  Histogram& ha = registry.histogram("test_metrics_same_name_nanos");
  Histogram& hb = registry.histogram("test_metrics_same_name_nanos");
  EXPECT_EQ(&ha, &hb);
}

TEST_F(MetricsTest, RegistrySnapshotSeesRegisteredValues) {
  Registry& registry = Registry::Global();
  registry.counter("test_metrics_snapshot_total").Inc(5);
  registry.gauge("test_metrics_snapshot_level").Set(-2);
  registry.histogram("test_metrics_snapshot_nanos").Record(9);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == "test_metrics_snapshot_total") {
      saw_counter = true;
      EXPECT_EQ(m.kind, MetricKind::kCounter);
      EXPECT_EQ(m.counter, 5u);
    } else if (m.name == "test_metrics_snapshot_level") {
      saw_gauge = true;
      EXPECT_EQ(m.kind, MetricKind::kGauge);
      EXPECT_EQ(m.gauge, -2);
    } else if (m.name == "test_metrics_snapshot_nanos") {
      saw_histogram = true;
      EXPECT_EQ(m.kind, MetricKind::kHistogram);
      EXPECT_EQ(m.histogram.count, 1u);
      EXPECT_EQ(m.histogram.sum, 9u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
}

TEST_F(MetricsTest, RegistryRegistrationIsThreadSafe) {
  // 8 threads race to register and increment the same name; exactly one
  // object must win and every increment must land on it.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      Counter& counter =
          Registry::Global().counter("test_metrics_race_total");
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(Registry::Global().counter("test_metrics_race_total").Value(),
            kThreads * kPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace jinfer
