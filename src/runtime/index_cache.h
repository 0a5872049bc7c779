// IndexCache: builds each SignatureIndex at most once under concurrent
// demand and shares it across sessions — now a two-tier cache backed by
// the persistent store (DESIGN.md §8).
//
// The index is the expensive per-instance artifact every session needs, and
// it is immutable once built — the natural unit of sharing for a runtime
// serving many concurrent users over a catalog of instances (the per-user
// protocol of the paper stays untouched; only the shared precomputation is
// factored out). Entries are keyed by a content fingerprint of
// (schema, rows, compression flag), so two callers handing in equal
// relations — whether or not they are the same objects — share one build.
//
// Tiers, in resolution order:
//   memory — resident shared_ptr<const SignatureIndex> entries, bounded by
//            IndexCacheOptions::capacity with count-min-sketch admission
//            (hot instances stay; one-hit wonders never displace them);
//   mapped — an attached store::IndexStore: a miss mmaps the persisted
//            file instead of rebuilding (zero-copy, ~constant time);
//   built  — a full SignatureIndex::Build, persisted back to the store so
//            every later process skips it.
//
// Concurrency contract (single-flight): the first caller to request a
// fingerprint becomes the resolver; callers that race on the same
// fingerprint block on the resolver's result instead of duplicating the
// work. Every caller receives the same shared_ptr<const SignatureIndex>.
// A failed resolution is reported to everyone waiting on it and then
// evicted, so a later request retries instead of caching the error.
// Eviction is safe at any time: handed-out indexes survive via shared
// ownership (a mapped index additionally keeps its file mapping alive).
//
// Aliases: a caller that knows a cheaper name for an instance than its
// fingerprint — the server's digest of an upload's raw bytes
// (store::FingerprintUpload) — passes it to GetOrBuildTiered, which
// attaches it to the entry; FindResident then answers a later lookup by
// that name with no relations at hand, no fingerprint and no blocking.
// An alias lives on the entry it names: each entry holds at most one (a
// later spelling replaces it), and it leaves with the entry — evicted,
// refused admission, failed or cleared — so the alias table is bounded
// by `capacity` and never names an index the cache no longer holds.
//
// Stamps: the fingerprint walks every cell of both relations. An
// in-process caller usually hands in the same objects on every lookup, so
// the cache also remembers the pair of their content stamps
// (rel::Relation::content_stamp) next to the fingerprint it computed for
// them, and a later lookup with that pair skips the fingerprint. A stamp
// names contents, never an object: appending a row clears it, and a copy
// gets its own, so a remembered pair never serves a stale fingerprint.
// Like an alias, each entry holds at most one pair (a later one replaces
// it) and the pair leaves with the entry. A lookup that names an alias
// has no pair: its relations are the caller's fresh parse, never handed
// in again.
//
// Failure domains (DESIGN.md §10): a store load that fails *transiently*
// (kUnavailable — fd pressure, an injected store.load.mmap fault) degrades
// to a fresh build instead of failing the lookup (counted in
// stats.degraded_builds); corrupt files were already quarantined by the
// store and likewise fall through to a rebuild. A failed build delivers
// its error to every waiter, and — when the failure was transient — arms a
// per-fingerprint backoff window (capped exponential) during which further
// lookups for that fingerprint fail fast with kUnavailable instead of
// stampeding the builder; the first lookup past the window retries for
// real. Permanent build errors (bad input) never arm backoff: they are
// cheap to reproduce and honest to report.

#ifndef JINFER_RUNTIME_INDEX_CACHE_H_
#define JINFER_RUNTIME_INDEX_CACHE_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/signature_index.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "relational/relation.h"
#include "store/fingerprint.h"
#include "store/index_store.h"
#include "util/frequency_sketch.h"
#include "util/result.h"
#include "util/stopwatch.h"

namespace jinfer {
namespace runtime {

/// The 128-bit instance fingerprint now lives in the store layer (it names
/// persisted files); these aliases keep the PR 3 spelling working.
using InstanceFingerprint = store::InstanceFingerprint;
using store::FingerprintInstance;

/// Which tier satisfied a lookup.
enum class IndexTier : uint8_t {
  kMemory,  ///< Resident entry (or a resolution already in flight).
  kMapped,  ///< Loaded zero-copy from the persistent store.
  kBuilt,   ///< Built from the relations (and persisted, if a store is
            ///< attached).
};

const char* IndexTierName(IndexTier tier);

/// Default bound on resident entries. Bounded is the production default —
/// PR 3's never-evicting behavior is the opt-in (capacity = 0): a runtime
/// meeting millions of instances must not grow its index heap without
/// limit, and with a store attached a non-resident instance costs only an
/// mmap, not a rebuild.
inline constexpr size_t kDefaultIndexCacheCapacity = 64;

struct IndexCacheOptions {
  /// Applied to every build this cache performs. The thread count does not
  /// affect the built index (see SignatureIndexOptions), so it is excluded
  /// from the fingerprint; the compression flag changes the index shape
  /// and is folded in.
  core::SignatureIndexOptions build;

  /// Maximum resident completed entries in the memory tier; 0 = unbounded
  /// (the explicit opt-out). In-flight resolutions are not counted — they
  /// must stay visible for single-flight.
  size_t capacity = kDefaultIndexCacheCapacity;

  /// Optional persistent tier. When set, misses consult the store before
  /// building, and successful builds are persisted back (best-effort: a
  /// store write failure never fails the lookup).
  std::shared_ptr<store::IndexStore> store;

  /// Per-fingerprint backoff after a *transient* resolution failure: the
  /// k-th consecutive failure opens a window of base * 2^(k-1), capped at
  /// `failure_backoff_max`, during which lookups for that fingerprint fail
  /// fast (kUnavailable) instead of re-running the build — a retrying herd
  /// collapses to one builder per window. Zero disables (every lookup
  /// retries immediately, the PR 3 behavior).
  std::chrono::milliseconds failure_backoff_base{100};
  std::chrono::milliseconds failure_backoff_max{5000};

  /// Clock the backoff windows are measured on; nullptr = the process
  /// steady clock. Tests inject a util::FakeClock so window expiry is an
  /// exact assertion instead of a sleep.
  const util::MonotonicClock* clock = nullptr;
};

struct IndexCacheStats {
  uint64_t lookups = 0;  ///< GetOrBuild calls and FindResident hits.
  uint64_t hits = 0;     ///< Memory-tier hits (including blocking on a
                         ///< resolution already in flight, and every
                         ///< FindResident hit).
  uint64_t builds = 0;   ///< Full SignatureIndex builds run (succeeded or
                         ///< failed); store loads are counted separately.
  uint64_t failures = 0; ///< Resolutions that ended in an error (evicted).
  uint64_t mapped_loads = 0;  ///< Misses served by mmapping the store.
  uint64_t store_writes = 0;  ///< Built indexes persisted to the store.
  uint64_t evictions = 0;     ///< Residents displaced by a hotter newcomer.
  uint64_t rejected_admissions = 0;  ///< Newcomers denied residency (still
                                     ///< returned to their callers).
  uint64_t degraded_builds = 0;  ///< Builds run because the store tier
                                 ///< failed transiently — served, degraded.
  uint64_t fail_fast = 0;  ///< Lookups rejected inside a failure-backoff
                           ///< window (no build attempted).
  uint64_t backoff_arms = 0;  ///< Transient failures that opened or widened
                              ///< a backoff window.

  /// Memory-tier hit rate — the fraction of lookups that needed neither a
  /// build nor a store load.
  double HitRate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

/// A GetOrBuildTiered result: the shared index plus which tier produced it.
struct TieredIndex {
  std::shared_ptr<const core::SignatureIndex> index;
  IndexTier tier = IndexTier::kMemory;
};

class IndexCache {
 public:
  explicit IndexCache(IndexCacheOptions options = {})
      : options_(std::move(options)),
        sketch_(options_.capacity == 0 ? 1024 : 16 * options_.capacity) {}

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Returns the shared index for (r, p), resolving it if this is the
  /// first request for the fingerprint — store load when attached, build
  /// otherwise. Blocks while another caller is resolving the same
  /// fingerprint (single-flight). Thread-safe.
  util::Result<std::shared_ptr<const core::SignatureIndex>> GetOrBuild(
      const rel::Relation& r, const rel::Relation& p);

  /// GetOrBuild plus the tier that satisfied the lookup (what the CLI
  /// prints and the benches count). A given `alias` is attached to the
  /// entry (see the header comment); it leaves with the entry, so it is
  /// gone again if this resolution fails or is refused residency. An
  /// aliased lookup neither reads nor records the relations' stamps.
  util::Result<TieredIndex> GetOrBuildTiered(
      const rel::Relation& r, const rel::Relation& p,
      const std::optional<InstanceFingerprint>& alias = std::nullopt);

  /// The resident index `alias` names, or null. Only a completed
  /// memory-tier entry answers: this never waits on a resolution in
  /// flight, never loads from the store and never builds. A hit counts
  /// and is timed as a GetOrBuild memory hit is (one lookup, one hit, the
  /// admission sketch, the probe span); a miss records nothing, because
  /// the caller's full lookup that follows does. Thread-safe.
  std::shared_ptr<const core::SignatureIndex> FindResident(
      const InstanceFingerprint& alias);

  /// Number of resident entries (completed or in-flight resolutions).
  size_t size() const;
  /// Number of remembered stamp pairs: at most size(), one per entry.
  size_t stamp_pairs() const;

  /// A read of the cache's own counter cells: exact once lookups quiesce.
  IndexCacheStats stats() const;

  const IndexCacheOptions& options() const { return options_; }

  /// Drops every entry. In-flight resolutions complete and are delivered
  /// to their waiters but are not re-inserted.
  void Clear();

 private:
  using BuildOutcome = util::Result<std::shared_ptr<const core::SignatureIndex>>;

  struct FingerprintHash {
    size_t operator()(const InstanceFingerprint& f) const {
      return static_cast<size_t>(f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// The content stamps of (r, p) as one lookup handed them in.
  struct StampPair {
    uint64_t r = 0;
    uint64_t p = 0;
    friend bool operator==(const StampPair&, const StampPair&) = default;
  };
  struct StampPairHash {
    size_t operator()(const StampPair& s) const {
      return static_cast<size_t>(util::Mix64(s.r) ^ s.p);
    }
  };

  /// The future lets losers of the insert race wait without holding mu_
  /// while the winner resolves; the id lets the winner touch exactly its
  /// own entry afterwards (never a successor inserted after a Clear).
  /// `ready` marks completed entries — only those are eviction candidates
  /// and only those answer FindResident.
  struct Entry {
    std::shared_future<BuildOutcome> future;
    uint64_t id = 0;
    bool ready = false;
    std::optional<InstanceFingerprint> alias;  ///< Its aliases_ key.
    std::optional<StampPair> stamps;           ///< Its stamps_ key.
  };
  using EntryMap =
      std::unordered_map<InstanceFingerprint, Entry, FingerprintHash>;

  /// 64-bit sketch key for a fingerprint.
  static uint64_t SketchKey(const InstanceFingerprint& f) {
    return f.hi ^ util::Mix64(f.lo);
  }

  /// Backoff bookkeeping for a fingerprint whose last resolution failed
  /// transiently. Erased on the next success.
  struct FailureState {
    uint32_t consecutive = 0;
    uint64_t retry_after_nanos = 0;  ///< On options_.clock's epoch.
  };

  /// The injected clock, or the process steady clock.
  const util::MonotonicClock& clock() const {
    return options_.clock != nullptr ? *options_.clock
                                     : *util::SystemClock();
  }

  /// Enforces the capacity bound after entry `id` for `key` completed:
  /// count-min admission — evict the coldest resident if the newcomer is
  /// hotter, otherwise drop the newcomer. Caller holds mu_.
  void EnforceCapacityLocked(const InstanceFingerprint& key, uint64_t id);

  /// Attaches a lookup's stamp pair and alias, each when given, to entry
  /// `it`, each replacing the one the entry held. Caller holds mu_.
  void AttachNamesLocked(EntryMap::iterator it,
                         const std::optional<StampPair>& stamps,
                         const std::optional<InstanceFingerprint>& alias);
  /// Erases entry `it`, its alias and its stamp pair. Caller holds mu_.
  void EraseLocked(EntryMap::iterator it);

  IndexCacheOptions options_;
  mutable std::mutex mu_;
  EntryMap entries_;
  /// Alias → the fingerprint of the entry holding it.
  std::unordered_map<InstanceFingerprint, InstanceFingerprint,
                     FingerprintHash>
      aliases_;
  /// Stamp pair → the fingerprint of the entry holding it.
  std::unordered_map<StampPair, InstanceFingerprint, StampPairHash> stamps_;
  std::unordered_map<InstanceFingerprint, FailureState, FingerprintHash>
      failures_;
  util::FrequencySketch sketch_;
  uint64_t next_id_ = 0;

  /// One cell per IndexCacheStats field — its only store, attached to the
  /// process-wide series of the same name (DESIGN.md §13.1).
  struct Counters {
    obs::OwnedCounter lookups{obs::kCacheLookupsTotal};
    obs::OwnedCounter hits{obs::kCacheHitsTotal};
    obs::OwnedCounter builds{obs::kCacheBuildsTotal};
    obs::OwnedCounter failures{obs::kCacheFailuresTotal};
    obs::OwnedCounter mapped_loads{obs::kCacheMappedLoadsTotal};
    obs::OwnedCounter store_writes{obs::kCacheStoreWritesTotal};
    obs::OwnedCounter evictions{obs::kCacheEvictionsTotal};
    obs::OwnedCounter rejected_admissions{obs::kCacheRejectedAdmissionsTotal};
    obs::OwnedCounter degraded_builds{obs::kCacheDegradedBuildsTotal};
    obs::OwnedCounter fail_fast{obs::kCacheFailFastTotal};
    obs::OwnedCounter backoff_arms{obs::kCacheBackoffArmsTotal};
  };
  Counters counters_;
};

}  // namespace runtime
}  // namespace jinfer

#endif  // JINFER_RUNTIME_INDEX_CACHE_H_
