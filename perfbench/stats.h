// The session benchmark's own arithmetic, kept apart from the workload
// code so perfbench/stats_test.cc can pin it on fixed inputs:
//
//   LatencyHistogram   log-linear nanosecond histogram (128 sub-buckets per
//                      octave, so a bucket is under 0.8% of its value wide)
//                      with rank-based, in-bucket interpolated quantiles.
//                      Millions of step samples per run fit in ~60 KiB per
//                      thread instead of a sorted sample vector.
//   TailQuantile       the highest percentile of a ladder that still has at
//                      least ten samples beyond it (the reporting rule for
//                      tail latency).
//   GroupQuantiles     a percentile per group of consecutive windows, each
//                      group pooling enough windows to have ten samples
//                      beyond its percentile.
//   QuietLatency/Rate  the quiet decile of per-window values: what a run
//                      reports on a host whose other tenants slow windows.
//   FailedRatio        failed sessions over attempted sessions; attempted
//                      counts every session started, failed or not.
//   RegistryDelta      what the program's obs::Registry recorded between two
//                      snapshots: counter and histogram deltas by name.

#ifndef JINFER_PERFBENCH_STATS_H_
#define JINFER_PERFBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

namespace obs = jinfer::obs;

/// The 1-based rank a q-quantile selects out of n > 0 samples:
/// ceil(q * n), clamped to [1, n]. The epsilon keeps q * n products that
/// land a rounding error above an integer (0.999 * 10000) on that integer.
inline uint64_t Rank(uint64_t n, double q) {
  const double exact = q * static_cast<double>(n);
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::ceil(exact - 1e-9)),
                              1, n);
}

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  LatencyHistogram() : buckets_(kBuckets, 0) {}

  /// Values below kSub get an exact bucket each; above, bucket width is
  /// 2^(e - kSubBits) for a value whose top set bit is e.
  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = std::bit_width(v) - 1;
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(kSub + (e - kSubBits) * kSub + sub);
  }
  static uint64_t BucketLower(size_t b) {
    if (b < kSub) return b;
    const int e = static_cast<int>((b - kSub) / kSub) + kSubBits;
    const uint64_t sub = (b - kSub) % kSub;
    return (kSub + sub) << (e - kSubBits);
  }
  static uint64_t BucketWidth(size_t b) {
    if (b < kSub) return 1;
    return uint64_t{1} << ((b - kSub) / kSub);
  }

  void Record(uint64_t v) {
    ++buckets_[BucketOf(v)];
    ++count_;
    sum_ += static_cast<double>(v);
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// The sample of rank ceil(q * count) (at least 1). Inside a bucket
  /// wider than 1 the k-th of n samples is placed at the midpoint of the
  /// k-th of n equal slices, so the value moves with the counts rather
  /// than snapping to a bucket edge. 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = Rank(count_, q);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint64_t n = buckets_[b];
      if (seen + n < rank) {
        seen += n;
        continue;
      }
      const uint64_t width = BucketWidth(b);
      const double lower = static_cast<double>(BucketLower(b));
      if (width == 1) return lower;
      const double k = static_cast<double>(rank - seen);
      return lower + static_cast<double>(width) * (k - 0.5) /
                         static_cast<double>(n);
    }
    return static_cast<double>(BucketLower(kBuckets - 1));
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

/// Samples strictly beyond the rank a q-quantile selects out of n.
inline uint64_t SamplesBeyond(uint64_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

/// The highest of p99.9, p99, p95, p90, p75 that has at least `min_beyond`
/// samples beyond it; the median when none has.
inline double TailQuantile(uint64_t n, uint64_t min_beyond = 10) {
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.5;
}

/// The p-quantile of `values` by linear interpolation between order
/// statistics (p = 0.5 is the median, the mean of the two middle values for
/// an even count); 0 when empty.
inline double QuantileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return QuantileOf(std::move(values), 0.5);
}

/// Per-group q-quantiles of a run measured in consecutive windows:
/// consecutive windows are pooled into groups until each group has at
/// least `min_beyond` samples beyond its q-quantile (a short remainder
/// joins the last group). With too few samples for two groups this is the
/// pooled quantile alone.
inline std::vector<double> GroupQuantiles(
    const std::vector<LatencyHistogram>& windows, double q,
    uint64_t min_beyond = 10) {
  std::vector<LatencyHistogram> groups;
  LatencyHistogram current;
  for (const LatencyHistogram& w : windows) {
    current.Merge(w);
    if (SamplesBeyond(current.count(), q) >= min_beyond) {
      groups.push_back(std::move(current));
      current = LatencyHistogram();
    }
  }
  if (current.count() != 0) {
    if (groups.empty()) {
      groups.push_back(std::move(current));
    } else {
      groups.back().Merge(current);
    }
  }
  std::vector<double> values;
  for (const LatencyHistogram& g : groups) values.push_back(g.Quantile(q));
  return values;
}

/// The run's value of a per-window statistic on a shared host: the quiet
/// decile of windows, i.e. the 10th percentile of per-window latencies or
/// the 90th percentile of per-window rates. Other tenants on the host only
/// ever make a window slower, in episodes of seconds to minutes that can
/// cover most of a run; a change to the program moves every window, the
/// quiet ones too.
inline double QuietLatency(std::vector<double> per_window) {
  return QuantileOf(std::move(per_window), 0.1);
}
inline double QuietRate(std::vector<double> per_window) {
  return QuantileOf(std::move(per_window), 0.9);
}

/// Failed over attempted; the base is every session started (completed or
/// not), never the completed ones. 0 when nothing was attempted.
inline double FailedRatio(uint64_t attempted, uint64_t failed) {
  return attempted == 0
             ? 0.0
             : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// One metric's change between two registry snapshots.
struct MetricDelta {
  obs::MetricKind kind = obs::MetricKind::kCounter;
  uint64_t counter = 0;             ///< kCounter: after - before.
  int64_t gauge = 0;                ///< kGauge: the value after.
  obs::HistogramSnapshot histogram;  ///< kHistogram: bucket-wise delta.
};

/// Name → delta for every metric in `after`. A metric registered between
/// the snapshots counts from zero. Counters never run backwards; a delta
/// that would is clamped to 0 rather than wrapping.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(const std::vector<obs::MetricSnapshot>& before,
                const std::vector<obs::MetricSnapshot>& after) {
    std::map<std::string, const obs::MetricSnapshot*> prior;
    for (const obs::MetricSnapshot& m : before) prior[m.name] = &m;
    for (const obs::MetricSnapshot& m : after) {
      MetricDelta d;
      d.kind = m.kind;
      const auto it = prior.find(m.name);
      const obs::MetricSnapshot* b =
          it == prior.end() || it->second->kind != m.kind ? nullptr
                                                          : it->second;
      switch (m.kind) {
        case obs::MetricKind::kCounter:
          d.counter = Sub(m.counter, b == nullptr ? 0 : b->counter);
          break;
        case obs::MetricKind::kGauge:
          d.gauge = m.gauge;
          break;
        case obs::MetricKind::kHistogram:
          d.histogram = m.histogram;
          if (b != nullptr) {
            d.histogram.count = Sub(m.histogram.count, b->histogram.count);
            d.histogram.sum = Sub(m.histogram.sum, b->histogram.sum);
            for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
              d.histogram.buckets[i] =
                  Sub(m.histogram.buckets[i], b->histogram.buckets[i]);
            }
          }
          break;
      }
      deltas_[m.name] = d;
    }
  }

  /// Adds another interval's deltas (runs split into chunks).
  void Accumulate(const RegistryDelta& other) {
    for (const auto& [name, d] : other.deltas_) {
      MetricDelta& mine = deltas_[name];
      mine.kind = d.kind;
      mine.counter += d.counter;
      mine.gauge = d.gauge;
      mine.histogram.count += d.histogram.count;
      mine.histogram.sum += d.histogram.sum;
      for (size_t i = 0; i < obs::kHistogramBuckets; ++i) {
        mine.histogram.buckets[i] += d.histogram.buckets[i];
      }
    }
  }

  uint64_t Counter(const std::string& name) const {
    const auto it = deltas_.find(name);
    return it == deltas_.end() ? 0 : it->second.counter;
  }
  obs::HistogramSnapshot Histogram(const std::string& name) const {
    const auto it = deltas_.find(name);
    return it == deltas_.end() ? obs::HistogramSnapshot{}
                               : it->second.histogram;
  }
  /// Mean of a nanosecond histogram's delta, in microseconds (0 if empty).
  double MeanMicros(const std::string& name) const {
    const obs::HistogramSnapshot h = Histogram(name);
    return h.count == 0 ? 0.0
                        : static_cast<double>(h.sum) /
                              static_cast<double>(h.count) / 1e3;
  }

  const std::map<std::string, MetricDelta>& all() const { return deltas_; }

 private:
  static uint64_t Sub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

  std::map<std::string, MetricDelta> deltas_;
};

}  // namespace perfbench

#endif  // JINFER_PERFBENCH_STATS_H_
