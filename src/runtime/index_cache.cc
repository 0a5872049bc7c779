#include "runtime/index_cache.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/string_util.h"

namespace jinfer {
namespace runtime {

namespace {

/// The cache's latency histograms, process-wide (DESIGN.md §13.1).
struct CacheMetrics {
  obs::Histogram& probe_nanos;
  obs::Histogram& build_nanos;

  static CacheMetrics& Get() {
    static CacheMetrics* m = new CacheMetrics{
        obs::Registry::Global().histogram(obs::kCacheProbeNanos),
        obs::Registry::Global().histogram(obs::kCacheBuildNanos),
    };
    return *m;
  }
};

/// Makes `name` the entry's one name in `table`, where `held` is the name
/// it held and `entry_key` its key. A name names the entry that took it
/// last. Were two upload digests to collide, the entry that held the alias
/// before would still erase it on leaving: a name can be lost, never left
/// naming no entry. A stamp pair cannot collide, since a stamp names one
/// content and the fingerprint is a function of the content.
template <typename Name, typename Table>
void AttachName(Table& table, std::optional<Name>& held, const Name& name,
                const InstanceFingerprint& entry_key) {
  if (held == name) return;
  if (held.has_value()) table.erase(*held);
  table[name] = entry_key;
  held = name;
}

}  // namespace

const char* IndexTierName(IndexTier tier) {
  switch (tier) {
    case IndexTier::kMemory: return "memory";
    case IndexTier::kMapped: return "mapped";
    case IndexTier::kBuilt: return "built";
  }
  return "unknown";
}

util::Result<std::shared_ptr<const core::SignatureIndex>>
IndexCache::GetOrBuild(const rel::Relation& r, const rel::Relation& p) {
  JINFER_ASSIGN_OR_RETURN(TieredIndex tiered, GetOrBuildTiered(r, p));
  return std::move(tiered.index);
}

util::Result<TieredIndex> IndexCache::GetOrBuildTiered(
    const rel::Relation& r, const rel::Relation& p,
    const std::optional<InstanceFingerprint>& alias) {
  CacheMetrics& metrics = CacheMetrics::Get();
  obs::ScopedSpan probe_span(obs::SpanKind::kCacheProbe, /*trace_id=*/0,
                             &metrics.probe_nanos);
  // An aliased lookup hands in its caller's fresh parse, which dies with
  // the open: its pair could never hit, so it is neither read (a first
  // read draws two stamps) nor looked up nor recorded.
  std::optional<StampPair> stamps;
  if (!alias.has_value()) {
    stamps = StampPair{r.content_stamp(), p.content_stamp()};
  }

  // Engaged only on a miss: the promise's shared state is a heap
  // allocation the hit path (the per-session steady state) never needs.
  std::optional<std::promise<BuildOutcome>> promise;
  uint64_t my_id;
  InstanceFingerprint key;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto stamped = stamps.has_value() ? stamps_.find(*stamps) : stamps_.end();
    if (stamped != stamps_.end()) {
      key = stamped->second;
    } else {
      // Unseen contents: fingerprint them without holding mu_.
      lock.unlock();
      key = FingerprintInstance(r, p, options_.build.compress);
      lock.lock();
    }
    counters_.lookups.Inc();
    // Every lookup feeds the admission sketch, hits included: residency
    // decisions compare true access frequencies, not miss frequencies.
    sketch_.Increment(SketchKey(key));
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      counters_.hits.Inc();
      AttachNamesLocked(it, stamps, alias);
      std::shared_future<BuildOutcome> future = it->second.future;
      lock.unlock();
      // Blocks iff the resolution is still in flight.
      JINFER_ASSIGN_OR_RETURN(auto index, future.get());
      return TieredIndex{std::move(index), IndexTier::kMemory};
    }
    // Inside a failure-backoff window the herd fails fast; exactly the
    // first lookup past the window (or a waiter joining an in-flight
    // resolution above) runs a real retry.
    auto failed = failures_.find(key);
    if (failed != failures_.end() &&
        clock().NowNanos() < failed->second.retry_after_nanos) {
      counters_.fail_fast.Inc();
      return util::Status::Unavailable(util::StrFormat(
          "index resolution for fingerprint %s backing off after %u "
          "transient failure(s)",
          key.ToHex().c_str(), failed->second.consecutive));
    }
    my_id = ++next_id_;
    promise.emplace();
    it = entries_
             .emplace(key, Entry{promise->get_future().share(), my_id, false,
                                 std::nullopt, std::nullopt})
             .first;
    AttachNamesLocked(it, stamps, alias);
  }

  // Single-flight winner: resolve outside the lock so concurrent requests
  // for other fingerprints (and waiters on this one) are never serialized
  // on mu_. Store first — an mmap load is ~constant-time against a build.
  IndexTier tier = IndexTier::kBuilt;
  BuildOutcome outcome = util::Status::NotFound("unresolved");
  bool store_hit = false;
  bool degraded = false;
  if (options_.store != nullptr) {
    auto loaded = options_.store->Load(key);
    if (loaded.ok()) {
      outcome = std::move(loaded);
      tier = IndexTier::kMapped;
      store_hit = true;
    } else if (util::IsTransient(loaded.status())) {
      // The store retried and still couldn't map (fd/memory pressure, an
      // injected fault) — the bytes are presumed fine, the tier is just
      // unavailable. Serve the lookup anyway with a fresh build.
      degraded = true;
    }
    // NotFound and quarantined-corruption both fall through to a build;
    // the rebuilt index is persisted below, repopulating the slot.
  }
  bool persisted = false;
  if (!store_hit) {
    util::Result<core::SignatureIndex> built =
        [&]() -> util::Result<core::SignatureIndex> {
      obs::ScopedSpan build_span(obs::SpanKind::kIndexBuild, /*trace_id=*/0,
                                 &metrics.build_nanos);
      util::Status injected = util::FailpointHit("cache.build");
      if (!injected.ok()) return injected;
      return core::SignatureIndex::Build(r, p, options_.build);
    }();
    if (built.ok()) {
      auto shared = std::make_shared<const core::SignatureIndex>(
          std::move(built).ValueOrDie());
      if (options_.store != nullptr) {
        persisted = options_.store->Put(*shared, key).ok();
      }
      outcome = BuildOutcome(std::move(shared));
    } else {
      outcome = BuildOutcome(built.status());
    }
  }

  if (!outcome.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A failed outcome is always a failed build: a store-load failure
      // falls through to the build path above rather than surfacing.
      counters_.builds.Inc();
      counters_.failures.Inc();
      if (options_.failure_backoff_base.count() > 0 &&
          util::IsTransient(outcome.status())) {
        FailureState& state = failures_[key];
        ++state.consecutive;
        const uint32_t shift =
            std::min<uint32_t>(state.consecutive - 1, 16);  // Cap wins anyway.
        auto window = options_.failure_backoff_base * (1LL << shift);
        if (window > options_.failure_backoff_max) {
          window = options_.failure_backoff_max;
        }
        state.retry_after_nanos =
            clock().NowNanos() +
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(window)
                    .count());
        counters_.backoff_arms.Inc();
      }
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.id == my_id) EraseLocked(it);
    }
    // Deliver after the eviction: a caller that misses the erased entry
    // starts a fresh resolution instead of waiting on this failed one.
    promise->set_value(outcome);
    return outcome.status();
  }

  // Deliver before admission: waiters get their index immediately; whether
  // the entry stays resident is a separate (capacity) question.
  promise->set_value(outcome);
  {
    std::lock_guard<std::mutex> lock(mu_);
    failures_.erase(key);  // Success closes any backoff window.
    if (store_hit) {
      counters_.mapped_loads.Inc();
    } else {
      counters_.builds.Inc();
      if (degraded) counters_.degraded_builds.Inc();
      if (persisted) counters_.store_writes.Inc();
    }
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.id == my_id) {
      it->second.ready = true;
      if (options_.capacity > 0) EnforceCapacityLocked(key, my_id);
    }
  }
  return TieredIndex{std::move(outcome).ValueOrDie(), tier};
}

void IndexCache::EnforceCapacityLocked(const InstanceFingerprint& key,
                                       uint64_t id) {
  size_t ready_count = 0;
  for (const auto& [k, e] : entries_) {
    if (e.ready) ++ready_count;
  }
  if (ready_count <= options_.capacity) return;

  // TinyLFU admission: the newcomer displaces the coldest resident only if
  // the sketch says it is accessed strictly more often; otherwise the
  // newcomer itself is dropped (its callers keep their shared_ptrs, and
  // with a store attached the next access is an mmap, not a rebuild).
  // Ties and victim selection break deterministically on (estimate, id) —
  // oldest entry first — so tests can pin the behavior.
  const uint32_t newcomer_freq = sketch_.Estimate(SketchKey(key));
  auto victim = entries_.end();
  uint32_t victim_freq = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (!it->second.ready || it->second.id == id) continue;
    const uint32_t freq = sketch_.Estimate(SketchKey(it->first));
    if (victim == entries_.end() || freq < victim_freq ||
        (freq == victim_freq && it->second.id < victim->second.id)) {
      victim = it;
      victim_freq = freq;
    }
  }
  if (victim != entries_.end() && newcomer_freq > victim_freq) {
    EraseLocked(victim);
    counters_.evictions.Inc();
  } else {
    auto self = entries_.find(key);
    if (self != entries_.end() && self->second.id == id) {
      EraseLocked(self);
      counters_.rejected_admissions.Inc();
    }
  }
}

std::shared_ptr<const core::SignatureIndex> IndexCache::FindResident(
    const InstanceFingerprint& alias) {
  obs::ScopedSpan probe_span(obs::SpanKind::kCacheProbe, /*trace_id=*/0,
                             &CacheMetrics::Get().probe_nanos);
  std::lock_guard<std::mutex> lock(mu_);
  auto named = aliases_.find(alias);
  if (named != aliases_.end()) {
    const Entry& entry = entries_.at(named->second);
    if (entry.ready) {
      counters_.lookups.Inc();
      counters_.hits.Inc();
      sketch_.Increment(SketchKey(named->second));
      // A ready entry holds a delivered success: get() does not wait.
      return entry.future.get().ValueOrDie();
    }
  }
  probe_span.Cancel();
  return nullptr;
}

void IndexCache::AttachNamesLocked(
    EntryMap::iterator it, const std::optional<StampPair>& stamps,
    const std::optional<InstanceFingerprint>& alias) {
  if (stamps.has_value()) {
    AttachName(stamps_, it->second.stamps, *stamps, it->first);
  }
  if (alias.has_value()) {
    AttachName(aliases_, it->second.alias, *alias, it->first);
  }
}

void IndexCache::EraseLocked(EntryMap::iterator it) {
  if (it->second.alias.has_value()) aliases_.erase(*it->second.alias);
  if (it->second.stamps.has_value()) stamps_.erase(*it->second.stamps);
  entries_.erase(it);
}

size_t IndexCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t IndexCache::stamp_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stamps_.size();
}

IndexCacheStats IndexCache::stats() const {
  IndexCacheStats s;
  s.lookups = counters_.lookups.Value();
  s.hits = counters_.hits.Value();
  s.builds = counters_.builds.Value();
  s.failures = counters_.failures.Value();
  s.mapped_loads = counters_.mapped_loads.Value();
  s.store_writes = counters_.store_writes.Value();
  s.evictions = counters_.evictions.Value();
  s.rejected_admissions = counters_.rejected_admissions.Value();
  s.degraded_builds = counters_.degraded_builds.Value();
  s.fail_fast = counters_.fail_fast.Value();
  s.backoff_arms = counters_.backoff_arms.Value();
  return s;
}

void IndexCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  aliases_.clear();
  stamps_.clear();
}

}  // namespace runtime
}  // namespace jinfer
