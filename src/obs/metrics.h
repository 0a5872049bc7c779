// Process-wide metrics registry (DESIGN.md §13): named counters, gauges
// and log₂-bucketed latency histograms, built for instrumentation inside
// hot paths.
//
// Ownership: a subsystem instance (an IndexCache, a Server) owns its
// counters as OwnedCounter/OwnedGauge cells attached to a registry name.
// Those cells are the only store of what they count — the owner's stats()
// reads them, and Registry::Snapshot() reports each name as one series:
// the sum over live owners plus everything destroyed owners counted.
// Process-wide metrics with no owning instance (histograms, the minimax
// and trace counters) live in the registry itself.
//
// Cost discipline:
//   - Increments are wait-free: one relaxed fetch_add on a
//     cache-line-padded per-thread shard. Threads hash onto kMetricShards
//     cells, so concurrent writers on different cores never contend on a
//     line (BM_MetricsCounterInc, single-digit nanoseconds).
//   - Reads (Value / Snapshot) sum the shards — O(shards), paid by stats()
//     and the exposition path, never by the instrumented code.
//   - Every metric always records. Counters and gauges back stats();
//     histograms and spans feed the layer budget that the exposition and
//     the benches both read.
//
// Histograms bucket by position of the highest set bit: bucket 0 holds
// exactly the value 0, bucket b >= 1 holds [2^(b-1), 2^b - 1], 65 buckets
// total so uint64_t nanosecond latencies always fit. Quantiles interpolate
// linearly inside the selected bucket (HistogramSnapshot::Quantile) — the
// one shared definition the Prometheus text and
// bench/throughput_sessions.cc both report through.
//
// Naming convention: jinfer_<subsystem>_<metric> (counters end in _total,
// histograms in _nanos). Every production metric name is a constant in
// obs/metric_names.h; scripts/check_metric_names.py enforces both the
// convention and the single point of registration.

#ifndef JINFER_OBS_METRICS_H_
#define JINFER_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jinfer {
namespace obs {

/// Shard count per metric: a small power of two. More shards than typical
/// worker counts buys contention-freedom; padding bounds the footprint at
/// 64 B per shard per counter.
inline constexpr size_t kMetricShards = 16;

/// This thread's shard index: threads take round-robin tickets on first
/// touch, so up to kMetricShards concurrent threads never share a cell.
inline size_t ThisThreadShard() {
  static std::atomic<uint32_t> next{0};
  // Zero-initialized (constant-init) thread_local: the access compiles to
  // a bare TLS load with no init-guard check, worth ~1-2 ns per Inc. 0
  // means "no ticket yet"; the stored value is shard + 1.
  thread_local uint32_t shard_plus1 = 0;
  if (shard_plus1 == 0) [[unlikely]] {
    shard_plus1 = (next.fetch_add(1, std::memory_order_relaxed) &
                   (kMetricShards - 1)) +
                  1;
  }
  return shard_plus1 - 1;
}

/// Monotone event count. Wait-free increments; Value() sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    cells_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kMetricShards];
};

/// Point-in-time level (open connections, queue depth). Set-dominated, so
/// a single cell — gauges are updated from snapshot paths, not hot loops.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Bucket count: bucket 0 (the value 0) plus one per possible bit width.
inline constexpr size_t kHistogramBuckets = 65;

/// log₂ bucketing: 0 → bucket 0; v > 0 → bucket bit_width(v), i.e. bucket
/// b >= 1 covers [2^(b-1), 2^b - 1]. UINT64_MAX lands in bucket 64.
inline size_t HistogramBucket(uint64_t v) {
  return v == 0 ? 0 : static_cast<size_t>(std::bit_width(v));
}

/// A read-side histogram copy plus its quantile arithmetic.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Inclusive value range of bucket b (BucketLower(0) == BucketUpper(0)
  /// == 0).
  static uint64_t BucketLower(size_t b);
  static uint64_t BucketUpper(size_t b);

  /// The q-quantile (q in [0, 1]) under linear interpolation inside the
  /// selected bucket: the rank ceil(q * count) (at least 1) picks the
  /// bucket; the rank's position among the bucket's own samples places the
  /// value between the bucket's bounds. 0 when empty. Deterministic, so
  /// tests pin golden values against it.
  double Quantile(double q) const;
};

/// Latency histogram over uint64_t samples (the repo records nanoseconds).
/// Record is wait-free: two relaxed fetch_adds on this thread's shard.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v) {
    Shard& s = shards_[ThisThreadShard()];
    s.buckets[HistogramBucket(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot out;
    for (const Shard& s : shards_) {
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
      out.sum += s.sum.load(std::memory_order_relaxed);
    }
    for (uint64_t n : out.buckets) out.count += n;
    return out;
  }

  /// Folds a single-owner LocalHistogram in (one fetch_add per touched
  /// bucket plus one for the sum) and resets it. Defined after
  /// LocalHistogram below.
  inline void Merge(class LocalHistogram& local);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kHistogramBuckets]{};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kMetricShards];
};

/// Unsynchronized histogram accumulator for a single-owner hot loop.
/// Record() is a plain array increment (~1 ns — no atomics, no TLS);
/// the owner folds batches into a shared Histogram via Histogram::Merge,
/// paying the atomic cost once per touched bucket instead of twice per
/// sample. Sessions use this for their per-interaction latencies: the
/// Session object is externally serialized (batch workers hand it off
/// through the manager's run queues, and a server session travels with
/// its connection's frame to whichever thread runs it), so plain fields
/// are as safe as its existing accounting. Samples are invisible
/// to Snapshot() until merged — owners flush every few dozen samples and
/// on destruction, trading bounded staleness for the hot-path cost.
class LocalHistogram {
 public:
  LocalHistogram() = default;
  LocalHistogram(const LocalHistogram&) = delete;
  LocalHistogram& operator=(const LocalHistogram&) = delete;

  /// Moves reset the source so a moved-from owner's flush is a no-op —
  /// without this, every sample would merge once per move plus once.
  LocalHistogram(LocalHistogram&& other) noexcept { Steal(other); }
  LocalHistogram& operator=(LocalHistogram&& other) noexcept {
    if (this != &other) Steal(other);
    return *this;
  }

  void Record(uint64_t v) {
    const size_t b = HistogramBucket(v);
    ++counts_[b];
    sum_ += v;
    ++count_;
    if (b < lo_) lo_ = b;
    if (b > hi_) hi_ = b;
  }

  uint64_t count() const { return count_; }

  void Reset() {
    if (count_ == 0) return;
    for (size_t b = lo_; b <= hi_; ++b) counts_[b] = 0;
    sum_ = 0;
    count_ = 0;
    lo_ = kHistogramBuckets;
    hi_ = 0;
  }

 private:
  friend class Histogram;

  void Steal(LocalHistogram& other) {
    counts_ = other.counts_;
    sum_ = other.sum_;
    count_ = other.count_;
    lo_ = other.lo_;
    hi_ = other.hi_;
    other.Reset();
  }

  std::array<uint64_t, kHistogramBuckets> counts_{};
  uint64_t sum_ = 0;
  uint64_t count_ = 0;
  /// Touched-bucket range, so Reset and Merge walk a few entries, not 65.
  size_t lo_ = kHistogramBuckets;
  size_t hi_ = 0;
};

inline void Histogram::Merge(LocalHistogram& local) {
  if (local.count_ == 0) return;
  Shard& s = shards_[ThisThreadShard()];
  for (size_t b = local.lo_; b <= local.hi_; ++b) {
    if (local.counts_[b] != 0) {
      s.buckets[b].fetch_add(local.counts_[b], std::memory_order_relaxed);
    }
  }
  s.sum.fetch_add(local.sum_, std::memory_order_relaxed);
  local.Reset();
}

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// One registered metric, copied out for exposition.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;  ///< kCounter.
  int64_t gauge = 0;     ///< kGauge.
  HistogramSnapshot histogram;  ///< kHistogram.
};

/// Name → metric table. Registration (first call per name) takes a mutex;
/// every later call for the same name returns the same object, so call
/// sites cache a `static Counter&` and the steady state never locks.
/// Returned references live as long as the registry (stable addresses).
/// Registering one name as two different kinds is a programming error and
/// aborts. A counter or gauge name may also have instance-owned cells
/// attached (Owned below); Snapshot() folds them into the name's series.
class Registry {
 public:
  /// The process-wide instance every production metric registers in.
  static Registry& Global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The registry's own cell for `name`, created on first call. For a
  /// counter or gauge name with instance owners this cell is only part of
  /// the series: Snapshot() adds the live owners to it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Every registered metric, in registration order (deterministic
  /// exposition): one series per name, a counter or gauge reading as the
  /// registry's own cell plus every live owner's. Values are relaxed
  /// reads — a point-in-time view, exact once writers quiesce.
  std::vector<MetricSnapshot> Snapshot() const;

 private:
  template <typename Cell>
  friend class Owned;
  struct Slot;

  /// Finds or creates `name`'s slot. Caller holds mu_.
  Slot& ResolveLocked(std::string_view name, MetricKind kind);

  /// Owned<Cell> lifetime hooks (Cell is Counter or Gauge). Detach runs
  /// under the same mutex as Snapshot, so a snapshot sees a dying owner's
  /// total either in the owner or retired into the slot — never both,
  /// never neither.
  template <typename Cell>
  Slot& Attach(std::string_view name, const Cell* owner);
  template <typename Cell>
  void Detach(Slot& slot, const Cell* owner);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// A Counter or Gauge owned by one subsystem instance and attached to a
/// registry name for the owner's lifetime — the only store of what it
/// counts (DESIGN.md §13.1). The owner reads its own Value() for stats();
/// Registry::Snapshot() reports the name as the sum over live owners plus
/// the registry's own cell. When an owner dies, a counter's total retires
/// into that cell, so the series never drops and carries no labels; a
/// gauge's level leaves with its owner (a destroyed server has no open
/// connections).
template <typename Cell>
class Owned : public Cell {
  static_assert(std::is_same_v<Cell, Counter> || std::is_same_v<Cell, Gauge>,
                "only counters and gauges have instance owners");

 public:
  explicit Owned(std::string_view name,
                 Registry& registry = Registry::Global())
      : registry_(registry), slot_(registry.Attach<Cell>(name, this)) {}
  ~Owned() { registry_.Detach<Cell>(slot_, this); }
  Owned(const Owned&) = delete;  // The registry holds this address.
  Owned& operator=(const Owned&) = delete;

 private:
  Registry& registry_;
  Registry::Slot& slot_;
};

using OwnedCounter = Owned<Counter>;
using OwnedGauge = Owned<Gauge>;

}  // namespace obs
}  // namespace jinfer

#endif  // JINFER_OBS_METRICS_H_
