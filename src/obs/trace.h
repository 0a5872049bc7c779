// Trace layer (DESIGN.md §13.2): per-session span records in a fixed-size
// lock-free ring buffer — a flight recorder, not a log. Instrumented code
// drops one fixed-width record per timed operation (cache probe, store
// load, question compute, minimax search, frame decode/queue/execute);
// the ring keeps the most recent few thousand and silently overwrites the
// rest, so the recording cost is bounded and constant no matter how long
// the process runs. Dumps happen on demand (interactive_cli
// --metrics-dump) and on error/deadline paths (EmitFlightDump), where the
// last seconds of spans are exactly the forensics "why was this slow?"
// needs.
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
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace jinfer {
namespace obs {

/// What a span timed. Values are wire-stable (they appear in dumps).
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

/// RAII span: times construction → destruction on the steady clock
/// (Stopwatch's devirtualized default — spans are the hottest timing
/// call sites in the process), then records into the global flight
/// recorder and (optionally) a latency histogram — one timing read
/// shared by both sinks.
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
    const uint64_t duration = watch_.ElapsedNanos();
    if (histogram_ != nullptr) histogram_->Record(duration);
    FlightRecorder::Global().Record(SpanRecord{
        trace_id_, watch_.StartNanos(), duration, detail_, kind_});
  }

 private:
  SpanKind kind_;
  uint64_t trace_id_;
  uint64_t detail_ = 0;
  Histogram* histogram_;
  bool cancelled_ = false;
  util::Stopwatch watch_;
};

/// Renders `spans` as a human-readable table headed by `reason`, naming
/// the slowest span explicitly ("slowest span: ...") — the line the
/// deadline/error paths exist to produce.
std::string RenderFlightDump(const std::string& reason,
                             const std::vector<SpanRecord>& spans);

/// Snapshots the global recorder (filtered by trace_id when != 0),
/// renders it, stores it as the last dump (LastFlightDump) and writes a
/// one-line summary to stderr. Called on deadline expiries and fatal
/// serving errors; cheap enough to call on any exceptional path.
void EmitFlightDump(const std::string& reason, uint64_t trace_id = 0);

/// The most recent EmitFlightDump rendering (empty before the first).
/// Tests assert the dump names the slow span through this.
std::string LastFlightDump();

}  // namespace obs
}  // namespace jinfer

#endif  // JINFER_OBS_TRACE_H_
