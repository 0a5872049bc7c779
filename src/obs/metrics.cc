#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace jinfer {
namespace obs {

uint64_t HistogramSnapshot::BucketLower(size_t b) {
  if (b == 0) return 0;
  return uint64_t{1} << (b - 1);
}

uint64_t HistogramSnapshot::BucketUpper(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return UINT64_MAX;
  return (uint64_t{1} << b) - 1;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank in [1, count]: the ceil makes p100 the last sample and keeps p0
  // at the first, so quantiles of a single-bucket histogram stay inside
  // that bucket's bounds.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    const uint64_t n = buckets[b];
    if (n == 0) continue;
    if (rank <= cumulative + n) {
      const double lower = static_cast<double>(BucketLower(b));
      const double upper = static_cast<double>(BucketUpper(b));
      // Position of the rank among this bucket's own samples, in (0, 1].
      const double within = static_cast<double>(rank - cumulative) /
                            static_cast<double>(n);
      return lower + (upper - lower) * within;
    }
    cumulative += n;
  }
  return static_cast<double>(BucketUpper(kHistogramBuckets - 1));
}

struct Registry::Slot {
  std::string name;
  MetricKind kind;
  // Exactly one engaged, per kind. Separate members keep the metric types
  // copy-free and the slot trivially destroyable in registration order.
  // The counter cell also holds the totals of destroyed owners.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  // Live instance-owned cells attached to this name (Owned<Cell>).
  std::vector<const Counter*> counter_owners;
  std::vector<const Gauge*> gauge_owners;

  template <typename Cell>
  std::vector<const Cell*>& owners() {
    if constexpr (std::is_same_v<Cell, Counter>) {
      return counter_owners;
    } else {
      return gauge_owners;
    }
  }
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // Leaked: outlives all users.
  return *registry;
}

Registry::Slot& Registry::ResolveLocked(std::string_view name,
                                        MetricKind kind) {
  for (auto& slot : slots_) {
    if (slot->name == name) {
      JINFER_CHECK(slot->kind == kind,
                   "metric '%s' registered twice with different kinds",
                   slot->name.c_str());
      return *slot;
    }
  }
  auto slot = std::make_unique<Slot>();
  slot->name = std::string(name);
  slot->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      slot->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      slot->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      slot->histogram = std::make_unique<Histogram>();
      break;
  }
  slots_.push_back(std::move(slot));
  return *slots_.back();
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *ResolveLocked(name, MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *ResolveLocked(name, MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return *ResolveLocked(name, MetricKind::kHistogram).histogram;
}

template <typename Cell>
Registry::Slot& Registry::Attach(std::string_view name, const Cell* owner) {
  constexpr MetricKind kind = std::is_same_v<Cell, Counter>
                                  ? MetricKind::kCounter
                                  : MetricKind::kGauge;
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = ResolveLocked(name, kind);
  slot.owners<Cell>().push_back(owner);
  return slot;
}

template <typename Cell>
void Registry::Detach(Slot& slot, const Cell* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(slot.owners<Cell>(), owner);
  if constexpr (std::is_same_v<Cell, Counter>) {
    slot.counter->Inc(owner->Value());  // Retire: the series never drops.
  }
}

template Registry::Slot& Registry::Attach<Counter>(std::string_view,
                                                   const Counter*);
template Registry::Slot& Registry::Attach<Gauge>(std::string_view,
                                                 const Gauge*);
template void Registry::Detach<Counter>(Slot&, const Counter*);
template void Registry::Detach<Gauge>(Slot&, const Gauge*);

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    MetricSnapshot m;
    m.name = slot->name;
    m.kind = slot->kind;
    switch (slot->kind) {
      case MetricKind::kCounter:
        m.counter = slot->counter->Value();
        for (const Counter* owner : slot->counter_owners) {
          m.counter += owner->Value();
        }
        break;
      case MetricKind::kGauge:
        m.gauge = slot->gauge->Value();
        for (const Gauge* owner : slot->gauge_owners) {
          m.gauge += owner->Value();
        }
        break;
      case MetricKind::kHistogram:
        m.histogram = slot->histogram->Snapshot();
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace obs
}  // namespace jinfer
