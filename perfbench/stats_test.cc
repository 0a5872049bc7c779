// Self-test of the benchmark's own arithmetic (perfbench/stats.h) on fixed
// inputs. perfbench/run.py runs it after every build and refuses to run a
// workload if it fails. Exit 0 = all checks passed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

void TestBucketsRoundTrip() {
  using H = perfbench::LatencyHistogram;
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull,
                     1000ull, 123456789ull, (1ull << 40) + 12345ull,
                     ~0ull}) {
    const size_t b = H::BucketOf(v);
    EXPECT(b < H::kBuckets);
    EXPECT(H::BucketLower(b) <= v);
    EXPECT(v - H::BucketLower(b) < H::BucketWidth(b));
    // A bucket is under 1/128 of its lower bound wide.
    EXPECT(H::BucketWidth(b) == 1 ||
           H::BucketWidth(b) * 128 <= H::BucketLower(b));
  }
  EXPECT(H::BucketOf(127) + 1 == H::BucketOf(128));
}

void TestQuantilesOnFixedSamples() {
  perfbench::LatencyHistogram h;
  EXPECT(h.Quantile(0.5) == 0.0);
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);  // Exact buckets.
  EXPECT(h.count() == 100);
  EXPECT(h.Quantile(0.5) == 50.0);   // Rank ceil(0.5 * 100) = 50.
  EXPECT(h.Quantile(0.99) == 99.0);  // Rank 99.
  EXPECT(h.Quantile(1.0) == 100.0);
  EXPECT(h.Quantile(0.0) == 1.0);    // Rank clamps to 1.
  EXPECT(Near(h.Mean(), 50.5, 1e-12));

  // Wide buckets: 1000 samples of 10000 ns land in one bucket; every
  // quantile stays inside it and within 1% of the true value.
  perfbench::LatencyHistogram w;
  for (int i = 0; i < 1000; ++i) w.Record(10000);
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT(Near(w.Quantile(q), 10000.0, 0.01));
  }
  EXPECT(w.Quantile(0.25) < w.Quantile(0.75));  // Interpolated, not snapped.

  // Merge is a sum.
  perfbench::LatencyHistogram m;
  m.Merge(h);
  m.Merge(h);
  EXPECT(m.count() == 200);
  EXPECT(m.Quantile(0.5) == 50.0);
}

void TestTailSelection() {
  using perfbench::SamplesBeyond;
  using perfbench::TailQuantile;
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);  // ceil(989.01) = 990.
  EXPECT(SamplesBeyond(0, 0.99) == 0);
  EXPECT(TailQuantile(10000) == 0.999);  // 10 beyond p99.9.
  EXPECT(TailQuantile(9999) == 0.99);
  EXPECT(TailQuantile(1000) == 0.99);    // Exactly ten beyond p99.
  EXPECT(TailQuantile(999) == 0.95);     // p99 has only 9 beyond.
  EXPECT(TailQuantile(200) == 0.95);
  EXPECT(TailQuantile(100) == 0.90);
  EXPECT(TailQuantile(40) == 0.75);
  EXPECT(TailQuantile(39) == 0.5);
  EXPECT(TailQuantile(0) == 0.5);
}

void TestWindowStatistics() {
  using perfbench::GroupQuantiles;
  using perfbench::LatencyHistogram;
  using perfbench::Median;
  using perfbench::QuantileOf;
  using perfbench::QuietLatency;
  using perfbench::QuietRate;
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 2, 3}) == 2.5);
  EXPECT(QuantileOf({10, 20, 30, 40, 50}, 0.25) == 20.0);
  EXPECT(QuantileOf({10, 20}, 0.75) == 17.5);
  EXPECT(QuantileOf({7}, 0.25) == 7.0);

  // Ten windows of 100 samples at 50..59 ns: every window has 50 samples
  // beyond its median, so each is its own group.
  std::vector<LatencyHistogram> windows(10);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 100; ++i) windows[w].Record(50 + w);
  }
  std::vector<double> p50 = GroupQuantiles(windows, 0.5);
  EXPECT(p50.size() == 10);
  EXPECT(Median(p50) == 54.5);
  EXPECT(Near(QuietLatency(p50), 50.9, 1e-12));  // 10th pct of 50..59.
  // Bursts that slow most windows do not move the quiet decile.
  for (int w = 2; w < 10; ++w) {
    for (int i = 0; i < 300; ++i) windows[w].Record(500);
  }
  EXPECT(Near(QuietLatency(GroupQuantiles(windows, 0.5)), 50.9, 1e-12));
  EXPECT(QuietRate({900, 1000, 1000, 1000, 400, 300}) == 1000.0);

  // p99 needs 1000 samples for ten beyond it: 100-sample windows pool into
  // groups of ten; 25 windows make two groups, the last five windows join
  // the second.
  std::vector<LatencyHistogram> small(25);
  for (int w = 0; w < 25; ++w) {
    for (int v = 1; v <= 100; ++v) small[w].Record(v);
  }
  const std::vector<double> p99 = GroupQuantiles(small, 0.99);
  EXPECT(p99.size() == 2);
  EXPECT(p99[0] == 99.0 && p99[1] == 99.0);
  // Too few samples for one full group: the pooled quantile alone.
  EXPECT(GroupQuantiles({small[0]}, 0.99) == std::vector<double>{99.0});
  EXPECT(GroupQuantiles({}, 0.99).empty());
}

void TestFailedRatioBase() {
  using perfbench::FailedRatio;
  // 98 completed + 2 failed: the base is the 100 attempted, not the 98.
  EXPECT(FailedRatio(100, 2) == 0.02);
  EXPECT(FailedRatio(100, 0) == 0.0);
  EXPECT(FailedRatio(0, 0) == 0.0);
  EXPECT(FailedRatio(5, 5) == 1.0);
}

void TestRegistryDeltas() {
  jinfer::obs::Registry registry;
  jinfer::obs::Counter& lookups = registry.counter("t_lookups_total");
  jinfer::obs::Histogram& probe = registry.histogram("t_probe_nanos");
  lookups.Inc(7);
  probe.Record(1000);
  const auto before = registry.Snapshot();

  lookups.Inc(5);
  probe.Record(3000);
  probe.Record(5000);
  jinfer::obs::Counter& late = registry.counter("t_late_total");
  late.Inc(2);
  const auto after = registry.Snapshot();

  const perfbench::RegistryDelta delta(before, after);
  EXPECT(delta.Counter("t_lookups_total") == 5);
  EXPECT(delta.Counter("t_late_total") == 2);  // Registered mid-run.
  EXPECT(delta.Counter("t_missing_total") == 0);
  const jinfer::obs::HistogramSnapshot h = delta.Histogram("t_probe_nanos");
  EXPECT(h.count == 2);
  EXPECT(h.sum == 8000);
  EXPECT(delta.MeanMicros("t_probe_nanos") == 4.0);
  EXPECT(h.buckets[jinfer::obs::HistogramBucket(1000)] == 0);

  // An empty interval is all zeros; chunks accumulate.
  const auto again = registry.Snapshot();
  perfbench::RegistryDelta total(after, again);
  EXPECT(total.Counter("t_lookups_total") == 0);
  EXPECT(total.Histogram("t_probe_nanos").count == 0);
  total.Accumulate(delta);
  total.Accumulate(delta);
  EXPECT(total.Counter("t_lookups_total") == 10);
  EXPECT(total.Histogram("t_probe_nanos").sum == 16000);
}

}  // namespace

int main() {
  TestBucketsRoundTrip();
  TestQuantilesOnFixedSamples();
  TestTailSelection();
  TestWindowStatistics();
  TestFailedRatioBase();
  TestRegistryDeltas();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: ok\n");
  return 0;
}
