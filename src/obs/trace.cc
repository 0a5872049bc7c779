#include "obs/trace.h"

#include <bit>

#include "obs/metric_names.h"

namespace jinfer {
namespace obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIndexBuild: return "index_build";
    case SpanKind::kCacheProbe: return "cache_probe";
    case SpanKind::kStoreLoad: return "store_load";
    case SpanKind::kStorePut: return "store_put";
    case SpanKind::kQuestionCompute: return "question_compute";
    case SpanKind::kMinimaxSearch: return "minimax_search";
    case SpanKind::kAnswerApply: return "answer_apply";
    case SpanKind::kFrameDecode: return "frame_decode";
    case SpanKind::kFrameQueue: return "frame_queue";
    case SpanKind::kFrameExecute: return "frame_execute";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity)),
      mask_(slots_.size() - 1),
      drop_counter_(&Registry::Global().counter(kTraceSpansDroppedTotal)) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // Leaked.
  return *recorder;
}

void FlightRecorder::Record(const SpanRecord& record) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Odd sequence = write in progress: a reader that sees it skips the
  // slot. Two writers lapping each other on one slot can interleave, but
  // then neither leaves the exact even sequence a reader accepts, so a
  // torn record is never returned — it just counts as dropped.
  slot.seq.store(2 * ticket + 1, std::memory_order_release);
  slot.trace_id.store(record.trace_id, std::memory_order_relaxed);
  slot.start_nanos.store(record.start_nanos, std::memory_order_relaxed);
  slot.duration_nanos.store(record.duration_nanos,
                            std::memory_order_relaxed);
  slot.kind_detail.store(
      (record.detail << 8) | static_cast<uint64_t>(record.kind),
      std::memory_order_relaxed);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
  if (ticket >= slots_.size()) drop_counter_->Inc();
}

std::vector<SpanRecord> FlightRecorder::Snapshot(uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t cap = slots_.size();
  const uint64_t first = head > cap ? head - cap : 0;
  out.reserve(static_cast<size_t>(head - first));
  for (uint64_t ticket = first; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket & mask_];
    const uint64_t expected = 2 * ticket + 2;
    if (slot.seq.load(std::memory_order_acquire) != expected) continue;
    SpanRecord r;
    r.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    r.start_nanos = slot.start_nanos.load(std::memory_order_relaxed);
    r.duration_nanos = slot.duration_nanos.load(std::memory_order_relaxed);
    const uint64_t kd = slot.kind_detail.load(std::memory_order_relaxed);
    r.detail = kd >> 8;
    r.kind = static_cast<SpanKind>(kd & 0xff);
    // Re-check after the copy: a writer may have lapped us mid-read.
    if (slot.seq.load(std::memory_order_acquire) != expected) continue;
    if (trace_id != 0 && r.trace_id != trace_id) continue;
    out.push_back(r);
  }
  return out;
}

uint64_t FlightRecorder::recorded() const {
  return head_.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::dropped() const {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t cap = slots_.size();
  return head > cap ? head - cap : 0;
}

void RecordSpan(SpanKind kind, uint64_t trace_id, uint64_t start_nanos,
                uint64_t duration_nanos, uint64_t detail,
                Histogram* histogram) {
  if (histogram != nullptr) histogram->Record(duration_nanos);
  FlightRecorder::Global().Record(
      SpanRecord{trace_id, start_nanos, duration_nanos, detail, kind});
}

}  // namespace obs
}  // namespace jinfer
