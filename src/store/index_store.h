// IndexStore: a directory of persisted signature indexes, content-addressed
// by instance fingerprint.
//
// One file per instance, named index-<32 hex digits>.jidx after the
// 128-bit fingerprint of (schema, rows, compress) — the same fingerprint
// the runtime IndexCache keys on, so cache and store agree on identity by
// construction. Because serialization is deterministic, writers racing on
// one fingerprint produce byte-identical files and the last rename wins
// harmlessly.
//
// Durability discipline (Put): serialize to a unique temporary in the same
// directory, fsync, then rename(2) onto the final name — readers and
// concurrent processes only ever observe complete files. Loads mmap the
// file read-only and validate header + checksum before any section is
// trusted (mapped_index.h).
//
// Corruption quarantine (Load): a file that fails validation — truncated,
// bit-rotted, version-mismatched, or carrying the wrong fingerprint — is
// moved into quarantine/ under the store directory and the load reports a
// ParseError. The slot is then free: the next Put repopulates it with a
// fresh build, and the quarantined bytes stay available for post-mortem.
// A corrupt store therefore degrades to a cold one; it never crashes the
// runtime and never wedges a fingerprint permanently.
//
// Thread/process safety: Load and Put are safe from concurrent threads and
// processes (atomic rename, unique temp names, wait-free counter cells).
//
// Failure domains (DESIGN.md §10): every fallible syscall boundary is
// classified transient-vs-permanent (util::IoStatusFromErrno) and carries a
// failpoint for chaos testing — store.put.fsync, store.put.rename,
// store.put.dirsync, store.load.mmap. Transient failures (kUnavailable)
// are retried in place with capped exponential backoff (a default
// util::RetryPolicy); only *permanent* validation failures
// quarantine a file — a load that merely ran out of fds must not throw
// good bytes away.

#ifndef JINFER_STORE_INDEX_STORE_H_
#define JINFER_STORE_INDEX_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/signature_index.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "store/fingerprint.h"
#include "store/mapped_index.h"
#include "util/result.h"
#include "util/status.h"

namespace jinfer {
namespace store {

struct IndexStoreStats {
  uint64_t loads = 0;        ///< Load calls.
  uint64_t load_hits = 0;    ///< Loads that returned a mapped index.
  uint64_t load_misses = 0;  ///< Loads with no file for the fingerprint.
  uint64_t writes = 0;       ///< Puts that wrote a file.
  uint64_t skipped_writes = 0;  ///< Puts that found the file already there.
  uint64_t quarantined = 0;  ///< Corrupt files moved to quarantine/.
  uint64_t put_retries = 0;   ///< Publish attempts re-run after a transient
                              ///< fault (real or injected).
  uint64_t load_retries = 0;  ///< Mmap attempts re-run after a transient
                              ///< fault.
};

class IndexStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`. Fails with
  /// IoError when the directory cannot be created or is not writable.
  static util::Result<IndexStore> Open(std::string dir);

  IndexStore(IndexStore&&) = default;
  IndexStore& operator=(IndexStore&&) = default;

  const std::string& dir() const { return dir_; }

  /// Path the given fingerprint serializes to (whether or not it exists).
  std::string PathFor(const InstanceFingerprint& fingerprint) const;

  /// True iff a file for the fingerprint currently exists (it may still
  /// fail validation at Load time).
  bool Contains(const InstanceFingerprint& fingerprint) const;

  /// Maps and validates the index for `fingerprint`. NotFound when absent;
  /// ParseError (after quarantining the file) when present but invalid —
  /// including a file whose header fingerprint disagrees with its name.
  util::Result<std::shared_ptr<const core::SignatureIndex>> Load(
      const InstanceFingerprint& fingerprint) const;

  /// Persists `index` under `fingerprint` (write-temp, fsync, rename,
  /// fsync the directory). A no-op when a *valid* file already exists:
  /// files are content-addressed, so it already holds these bytes. An
  /// existing file that fails validation is quarantined and replaced —
  /// Put is the self-heal path after corruption.
  util::Status Put(const core::SignatureIndex& index,
                   const InstanceFingerprint& fingerprint) const;

  /// A read of the store's own counter cells: exact once calls quiesce.
  IndexStoreStats stats() const;

 private:
  explicit IndexStore(std::string dir) : dir_(std::move(dir)) {}

  /// One write-temp → fsync → rename → dirsync publication attempt; the
  /// unit Put retries on transient failure (always onto a fresh temp name,
  /// so a half-failed attempt never taints the next).
  util::Status PublishOnce(const std::vector<uint8_t>& bytes,
                           const std::string& path) const;

  /// Moves `path` into quarantine/ (best-effort; the load error is
  /// reported either way).
  void Quarantine(const std::string& path) const;

  /// One cell per IndexStoreStats field — its only store, attached to the
  /// process-wide series of the same name (DESIGN.md §13.1).
  struct Counters {
    obs::OwnedCounter loads{obs::kStoreLoadsTotal};
    obs::OwnedCounter load_hits{obs::kStoreLoadHitsTotal};
    obs::OwnedCounter load_misses{obs::kStoreLoadMissesTotal};
    obs::OwnedCounter writes{obs::kStoreWritesTotal};
    obs::OwnedCounter skipped_writes{obs::kStoreSkippedWritesTotal};
    obs::OwnedCounter quarantined{obs::kStoreQuarantinedTotal};
    obs::OwnedCounter put_retries{obs::kStorePutRetriesTotal};
    obs::OwnedCounter load_retries{obs::kStoreLoadRetriesTotal};
  };

  std::string dir_;
  // Behind a pointer so IndexStore stays movable: cells are attached to
  // the registry by address.
  std::unique_ptr<Counters> counters_ = std::make_unique<Counters>();
};

}  // namespace store
}  // namespace jinfer

#endif  // JINFER_STORE_INDEX_STORE_H_
