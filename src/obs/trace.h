// Trace layer (DESIGN.md §13.2): per-session span records in a fixed-size
// lock-free ring buffer — a flight recorder, not a log. Instrumented code
// drops one fixed-width record per timed operation (cache probe, store
// load, question compute, minimax search, frame decode/queue/execute);
// the ring keeps the most recent few thousand and silently overwrites the
// rest, so the recording cost is bounded and constant no matter how long
// the process runs. Readers take a Snapshot: perfbench's traced run builds
// its per-layer budget from the spans, and the tests check what was
// recorded. No serving path reads the ring.
//
// Concurrency: Record is wait-free — one relaxed fetch_add claims a
// ticket, then five relaxed atomic stores fill the slot, bracketed by a
// per-slot sequence word (odd while writing, 2*ticket+2 when complete).
// Snapshot validates the sequence before and after copying a slot and
// skips torn records, so readers never block writers and TSan sees only
// atomics. Records lost to wraparound are counted (dropped(), plus the
// jinfer_trace_spans_dropped_total counter) — overflow is silent to the
// writer but never invisible to the operator.

#ifndef JINFER_OBS_TRACE_H_
#define JINFER_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace jinfer {
namespace obs {

/// What a span timed. Values are stable: readers outside the library
/// (perfbench's traced run) switch on them.
enum class SpanKind : uint8_t {
  kIndexBuild = 1,     ///< SignatureIndex::Build inside the cache.
  kCacheProbe = 2,     ///< IndexCache::GetOrBuildTiered, whole call.
  kStoreLoad = 3,      ///< IndexStore::Load.
  kStorePut = 4,       ///< IndexStore::Put.
  kQuestionCompute = 5,  ///< Session::NextQuestion (strategy pick).
  kMinimaxSearch = 6,  ///< MinimaxEngine root search (detail = nodes).
  kAnswerApply = 7,    ///< Session::Answer (ApplyLabel).
  kFrameDecode = 8,    ///< Connection frame assembly + checksum.
  kFrameQueue = 9,     ///< Work-queue wait, dispatch → worker pickup.
  kFrameExecute = 10,  ///< Frame handler, on a worker or inline on the
                       ///< event thread (detail = frame type).
};

const char* SpanKindName(SpanKind kind);

/// One timed operation. trace_id groups spans belonging to one session
/// (the session's wire id server-side; 0 = unattributed).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t start_nanos = 0;
  uint64_t duration_nanos = 0;
  uint64_t detail = 0;  ///< Kind-specific: tier, node count, frame type.
  SpanKind kind = SpanKind::kCacheProbe;
};

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two. The default holds the last
  /// few thousand spans — seconds of serving traffic — in ~300 KiB.
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder all production spans land in.
  static FlightRecorder& Global();

  /// Wait-free append.
  void Record(const SpanRecord& record);

  /// The retained records in ticket (= chronological claim) order, oldest
  /// first, torn slots skipped. trace_id != 0 filters to one session.
  std::vector<SpanRecord> Snapshot(uint64_t trace_id = 0) const;

  /// Total records ever claimed / lost to wraparound.
  uint64_t recorded() const;
  uint64_t dropped() const;

  size_t capacity() const { return slots_.size(); }

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  /// Slot fields are individually atomic (relaxed) so concurrent
  /// writer/reader access is data-race-free by construction; seq is the
  /// torn-read detector. Line-aligned: consecutive tickets are claimed by
  /// different threads, so two slots sharing a cache line would put every
  /// concurrent pair of writers in a false-sharing ping-pong (measured as
  /// a several-percent BM_ThroughputSessions hit at 4+ workers).
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> start_nanos{0};
    std::atomic<uint64_t> duration_nanos{0};
    std::atomic<uint64_t> kind_detail{0};  ///< detail << 8 | kind.
  };

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
  Counter* drop_counter_;  ///< jinfer_trace_spans_dropped_total.
};

/// Records a finished span: a sample in `histogram` when one is given,
/// then a record in the global flight recorder. The one place a span's
/// record is filled, for ScopedSpan and for the sites that time from
/// readings they already hold (session interactions, minimax searches,
/// the frame-queue wait).
void RecordSpan(SpanKind kind, uint64_t trace_id, uint64_t start_nanos,
                uint64_t duration_nanos, uint64_t detail,
                Histogram* histogram = nullptr);

/// RAII span: times construction → destruction with a Stopwatch, then
/// records through RecordSpan — one timing read shared by both sinks.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t trace_id,
             Histogram* histogram = nullptr)
      : kind_(kind), trace_id_(trace_id), histogram_(histogram) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_detail(uint64_t detail) { detail_ = detail; }

  /// Records nothing at destruction: for a probe whose misses another
  /// span times.
  void Cancel() { cancelled_ = true; }

  ~ScopedSpan() {
    if (cancelled_) return;
    RecordSpan(kind_, trace_id_, watch_.StartNanos(), watch_.ElapsedNanos(),
               detail_, histogram_);
  }

 private:
  SpanKind kind_;
  uint64_t trace_id_;
  uint64_t detail_ = 0;
  Histogram* histogram_;
  bool cancelled_ = false;
  util::Stopwatch watch_;
};

}  // namespace obs
}  // namespace jinfer

#endif  // JINFER_OBS_TRACE_H_
