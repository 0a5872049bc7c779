#include "store/index_store.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/index_file.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/string_util.h"

namespace jinfer {
namespace store {

namespace fs = std::filesystem;

namespace {

/// Applied around each Put publication and each Load mapping; only
/// kUnavailable outcomes are retried (see util/retry.h).
constexpr util::RetryPolicy kIoRetry{};

/// The store's latency histograms, process-wide (DESIGN.md §13.1).
struct StoreMetrics {
  obs::Histogram& load_nanos;
  obs::Histogram& put_nanos;

  static StoreMetrics& Get() {
    static StoreMetrics* m = new StoreMetrics{
        obs::Registry::Global().histogram(obs::kStoreLoadNanos),
        obs::Registry::Global().histogram(obs::kStorePutNanos),
    };
    return *m;
  }
};

constexpr const char* kFileSuffix = ".jidx";
constexpr const char* kQuarantineDir = "quarantine";

/// Writes `bytes` to `path` and fsyncs before closing, so the subsequent
/// rename publishes fully-durable content. Failure leaves no file behind
/// (injected fsync faults take the identical cleanup path, so chaos runs
/// prove the no-partial-file invariant, not a parallel code path).
util::Status WriteFileDurably(const std::string& path,
                              const std::vector<uint8_t>& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return util::IoStatusFromErrno(errno, util::StrFormat(
        "open(%s) for write: %s", path.c_str(), std::strerror(errno)));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::Status status = util::IoStatusFromErrno(errno, util::StrFormat(
          "write(%s): %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      ::unlink(path.c_str());
      return status;
    }
    written += static_cast<size_t>(n);
  }
  util::Status fsync_status = util::FailpointHit("store.put.fsync");
  if (fsync_status.ok() && ::fsync(fd) != 0) {
    fsync_status = util::IoStatusFromErrno(errno, util::StrFormat(
        "fsync(%s): %s", path.c_str(), std::strerror(errno)));
  }
  if (!fsync_status.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return fsync_status;
  }
  ::close(fd);
  return util::Status::OK();
}

}  // namespace

util::Result<IndexStore> IndexStore::Open(std::string dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError(util::StrFormat(
        "cannot create store directory %s: %s", dir.c_str(),
        ec.message().c_str()));
  }
  if (!fs::is_directory(dir, ec) || ec) {
    return util::Status::IoError(util::StrFormat(
        "store path %s is not a directory", dir.c_str()));
  }
  // Surface a read-only directory here, once, instead of letting every
  // Put fail silently later (the cache treats Put as best-effort, so a
  // misconfigured store would otherwise just disable persistence).
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    return util::Status::IoError(util::StrFormat(
        "store directory %s is not writable: %s", dir.c_str(),
        std::strerror(errno)));
  }
  return IndexStore(std::move(dir));
}

std::string IndexStore::PathFor(const InstanceFingerprint& fingerprint) const {
  return (fs::path(dir_) / ("index-" + fingerprint.ToHex() + kFileSuffix))
      .string();
}

bool IndexStore::Contains(const InstanceFingerprint& fingerprint) const {
  std::error_code ec;
  return fs::exists(PathFor(fingerprint), ec) && !ec;
}

util::Result<std::shared_ptr<const core::SignatureIndex>> IndexStore::Load(
    const InstanceFingerprint& fingerprint) const {
  obs::ScopedSpan span(obs::SpanKind::kStoreLoad, /*trace_id=*/0,
                       &StoreMetrics::Get().load_nanos);
  counters_->loads.Inc();
  const std::string path = PathFor(fingerprint);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    counters_->load_misses.Inc();
    return util::Status::NotFound(util::StrFormat(
        "no stored index for fingerprint %s", fingerprint.ToHex().c_str()));
  }

  // Transient mapping faults (fd/memory pressure, injected store.load.mmap)
  // are retried in place; they say nothing about the bytes on disk, so the
  // file is NOT quarantined when they exhaust the policy — the caller
  // (IndexCache) degrades to a fresh build and the file stays for the next
  // load. Only permanent validation failures condemn the file.
  uint64_t retries = 0;
  util::Result<MappedIndex> mapped = util::RetryCall(
      kIoRetry,
      [&]() -> util::Result<MappedIndex> {
        util::Status injected = util::FailpointHit("store.load.mmap");
        if (!injected.ok()) return injected;
        return LoadMappedIndex(path);
      },
      &retries);
  counters_->load_retries.Inc(retries);
  if (!mapped.ok() && util::IsTransient(mapped.status())) {
    return mapped.status();
  }
  if (mapped.ok() && !(mapped->fingerprint == fingerprint)) {
    mapped = util::Status::ParseError(util::StrFormat(
        "stored index %s carries fingerprint %s — file renamed or header "
        "corrupted", path.c_str(), mapped->fingerprint.ToHex().c_str()));
  }
  if (!mapped.ok()) {
    Quarantine(path);
    counters_->quarantined.Inc();
    return util::Status::ParseError(util::StrFormat(
        "stored index %s rejected and quarantined: %s", path.c_str(),
        mapped.status().message().c_str()));
  }

  counters_->load_hits.Inc();
  return std::move(mapped)->index;
}

util::Status IndexStore::Put(const core::SignatureIndex& index,
                             const InstanceFingerprint& fingerprint) const {
  obs::ScopedSpan span(obs::SpanKind::kStorePut, /*trace_id=*/0,
                       &StoreMetrics::Get().put_nanos);
  const std::string path = PathFor(fingerprint);
  std::error_code ec;
  if (fs::exists(path, ec) && !ec) {
    // Content-addressed: a *valid* existing file already holds exactly
    // these bytes (serialization is deterministic), so rewriting buys
    // nothing. Validate before skipping — skipping over a corrupt
    // leftover (e.g. a failed quarantine) would wedge the slot forever.
    auto existing = LoadMappedIndex(path);
    if (existing.ok() && existing->fingerprint == fingerprint) {
      counters_->skipped_writes.Inc();
      return util::Status::OK();
    }
    Quarantine(path);
    counters_->quarantined.Inc();
  }

  const std::vector<uint8_t> bytes = SerializeIndexFile(index, fingerprint);

  // Transient publish failures retry with backoff; each attempt runs the
  // full write→fsync→rename→dirsync sequence on a fresh temp name, so a
  // dirsync that failed after its rename published the file is simply
  // redone (re-renaming identical bytes is harmless — content-addressed).
  uint64_t retries = 0;
  util::Status published =
      util::RetryCall(kIoRetry, [&] { return PublishOnce(bytes, path); },
                      &retries);
  counters_->put_retries.Inc(retries);
  if (!published.ok()) return published;
  counters_->writes.Inc();
  return util::Status::OK();
}

util::Status IndexStore::PublishOnce(const std::vector<uint8_t>& bytes,
                                     const std::string& path) const {
  // Unique temp name per (process, attempt): concurrent writers — even
  // across processes — never collide, and the same-directory rename is
  // atomic, so readers only ever see complete files.
  static std::atomic<uint64_t> temp_counter{0};
  const std::string temp = (fs::path(dir_) /
                            util::StrFormat(
                                ".tmp-%ld-%llu%s", static_cast<long>(::getpid()),
                                static_cast<unsigned long long>(
                                    temp_counter.fetch_add(1)),
                                kFileSuffix))
                               .string();
  JINFER_RETURN_NOT_OK(WriteFileDurably(temp, bytes));
  util::Status rename_status = util::FailpointHit("store.put.rename");
  if (rename_status.ok()) {
    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
      rename_status = util::Status::IoError(util::StrFormat(
          "rename(%s -> %s) failed", temp.c_str(), path.c_str()));
    }
  }
  if (!rename_status.ok()) {
    // An unpublished temp must never outlive its attempt: readers scan the
    // directory in recovery paths, and leaked temps are the partial-file
    // class the write-temp→fsync→rename discipline exists to rule out.
    std::error_code ec;
    fs::remove(temp, ec);
    return rename_status;
  }
  // The rename publishes the name; fsyncing the directory journals it.
  // Without this a power loss can roll back to a state where the fsynced
  // *contents* exist but the directory entry does not — Put would have
  // reported a durable write that evaporates on reboot.
  util::Status dirsync = util::FailpointHit("store.put.dirsync");
  if (dirsync.ok()) {
    int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0 || ::fsync(dfd) != 0) {
      dirsync = util::IoStatusFromErrno(errno, util::StrFormat(
          "fsync(%s): %s", dir_.c_str(), std::strerror(errno)));
    }
    if (dfd >= 0) ::close(dfd);
  }
  return dirsync;
}

void IndexStore::Quarantine(const std::string& path) const {
  std::error_code ec;
  const fs::path qdir = fs::path(dir_) / kQuarantineDir;
  fs::create_directories(qdir, ec);
  if (ec) {
    // No quarantine home — removal is still mandatory: a corrupt file
    // left in its slot would be re-mapped (and re-fail) forever.
    fs::remove(path, ec);
    return;
  }
  fs::path target = qdir / fs::path(path).filename();
  // Keep earlier quarantined generations: suffix until the name is free.
  for (int attempt = 1; fs::exists(target, ec) && attempt < 100; ++attempt) {
    target = qdir / (fs::path(path).filename().string() +
                     util::StrFormat(".%d", attempt));
  }
  fs::rename(path, target, ec);
  if (ec) fs::remove(path, ec);  // Last resort: never re-load corrupt bytes.
}

IndexStoreStats IndexStore::stats() const {
  IndexStoreStats s;
  s.loads = counters_->loads.Value();
  s.load_hits = counters_->load_hits.Value();
  s.load_misses = counters_->load_misses.Value();
  s.writes = counters_->writes.Value();
  s.skipped_writes = counters_->skipped_writes.Value();
  s.quarantined = counters_->quarantined.Value();
  s.put_retries = counters_->put_retries.Value();
  s.load_retries = counters_->load_retries.Value();
  return s;
}

}  // namespace store
}  // namespace jinfer
