#include "runtime/session.h"

#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace jinfer {
namespace runtime {

namespace {

/// Validated before the member initializers dereference it — a null handle
/// must abort with this message, not segfault constructing the state.
const core::SignatureIndex* CheckedIndex(const core::SignatureIndex* index) {
  JINFER_CHECK(index != nullptr, "Session without an index");
  return index;
}

/// Per-interaction latency histograms. The Stopwatch the session already
/// runs for its `seconds` accounting provides both the duration and the
/// span's start timestamp — instrumenting an interaction costs no extra
/// clock read (the <2% BM_ThroughputSessions budget, DESIGN.md §13).
struct SessionMetrics {
  obs::Histogram& question_nanos;
  obs::Histogram& answer_nanos;

  static SessionMetrics& Get() {
    static SessionMetrics* m = new SessionMetrics{
        obs::Registry::Global().histogram(obs::kSessionQuestionNanos),
        obs::Registry::Global().histogram(obs::kSessionAnswerNanos),
    };
    return *m;
  }
};

/// Interaction halves below this duration feed their histogram but skip
/// the flight ring. The ring is forensics for "why was this slow" — a
/// micro-instance session runs hundreds of thousands of sub-microsecond
/// interactions per second, and recording them all both costs a
/// contended ring write per half (several percent of
/// BM_ThroughputSessions) and wraps the slow spans a reader wants out of
/// the ring within milliseconds. Anything long enough to explain
/// a stall clears 4 us easily; the histograms stay exact either way.
constexpr uint64_t kInteractionRingFloorNanos = 4096;

/// Samples batched in a thread-local accumulator before paying the
/// shared histogram's atomics (one Merge per this many samples plus one
/// at thread exit). Bounds both the hot-path cost and how stale a
/// mid-run registry scrape can be.
constexpr uint64_t kInteractionFlushEvery = 64;

/// A worker thread's unmerged latency samples for one histogram. Lives
/// in a thread_local rather than in the Session: worker threads persist
/// across many short sessions, so per-session accumulators would spend
/// more on zero-init and move-steals than the batching saves.
struct LocalLatency {
  obs::Histogram& shared;
  obs::LocalHistogram local;
  ~LocalLatency() { shared.Merge(local); }  // Thread-exit tail flush.
};

LocalLatency& QuestionLatency() {
  thread_local LocalLatency latency{SessionMetrics::Get().question_nanos, {}};
  return latency;
}

LocalLatency& AnswerLatency() {
  thread_local LocalLatency latency{SessionMetrics::Get().answer_nanos, {}};
  return latency;
}

/// Merges this thread's pending batches. Called when a session finishes,
/// so a scrape after completed traffic sees exact counts — staleness is
/// limited to sessions still in flight (≤ kInteractionFlushEvery samples
/// per thread per histogram).
void FlushInteractionLatencies() {
  LocalLatency& question = QuestionLatency();
  question.shared.Merge(question.local);
  LocalLatency& answer = AnswerLatency();
  answer.shared.Merge(answer.local);
}

/// One timed interaction half: thread-local histogram sample (merged
/// into the shared histogram in batches) plus flight-recorder span,
/// built from the measurement the caller already took.
void RecordInteraction(obs::SpanKind kind, LocalLatency& latency,
                       uint64_t trace_id, const util::Stopwatch& watch,
                       uint64_t duration_nanos, uint64_t detail) {
  latency.local.Record(duration_nanos);
  if (latency.local.count() >= kInteractionFlushEvery) {
    latency.shared.Merge(latency.local);
  }
  if (duration_nanos < kInteractionRingFloorNanos) return;
  obs::RecordSpan(kind, trace_id, watch.StartNanos(), duration_nanos, detail);
}

}  // namespace

Session::Session(std::shared_ptr<const core::SignatureIndex> index,
                 std::unique_ptr<core::Strategy> strategy,
                 SessionOptions options)
    : keepalive_(std::move(index)),
      index_(CheckedIndex(keepalive_.get())),
      strategy_(std::move(strategy)),
      options_(options),
      state_(*index_) {
  JINFER_CHECK(strategy_ != nullptr, "Session without a strategy");
}

Session::Session(const core::SignatureIndex& index,
                 std::unique_ptr<core::Strategy> strategy,
                 SessionOptions options)
    : index_(&index),
      strategy_(std::move(strategy)),
      options_(options),
      state_(index) {
  JINFER_CHECK(strategy_ != nullptr, "Session without a strategy");
}

std::optional<core::ClassId> Session::NextQuestion() {
  if (finished_) return std::nullopt;
  if (pending_) return pending_;

  util::Stopwatch watch;
  pending_ = core::PickNext(*strategy_, state_);
  finished_ = !pending_;
  const uint64_t duration_nanos = watch.ElapsedNanos();
  seconds_ += static_cast<double>(duration_nanos) * 1e-9;
  RecordInteraction(obs::SpanKind::kQuestionCompute, QuestionLatency(),
                    trace_id_, watch, duration_nanos,
                    pending_ ? static_cast<uint64_t>(*pending_) : 0);
  if (finished_) FlushInteractionLatencies();
  return pending_;
}

util::Status Session::Answer(core::Label label) {
  if (!pending_) {
    return util::Status::FailedPrecondition(
        "Answer with no pending question (call NextQuestion first)");
  }
  util::Stopwatch watch;
  const uint64_t informative_before = state_.InformativeTupleWeight();
  util::Status status = state_.ApplyLabel(*pending_, label);
  const uint64_t duration_nanos = watch.ElapsedNanos();
  seconds_ += static_cast<double>(duration_nanos) * 1e-9;
  RecordInteraction(obs::SpanKind::kAnswerApply, AnswerLatency(), trace_id_,
                    watch, duration_nanos, static_cast<uint64_t>(*pending_));
  if (!status.ok()) return status;  // Question stays pending; state untouched.

  ++num_interactions_;
  if (options_.record_trace) {
    trace_.push_back(
        core::InteractionRecord{*pending_, label, informative_before});
  }
  pending_.reset();
  return util::Status::OK();
}

core::InferenceResult Session::Result() const {
  core::InferenceResult result;
  result.predicate = state_.InferredPredicate();
  result.num_interactions = num_interactions_;
  result.seconds = seconds_;
  result.trace = trace_;
  return result;
}

}  // namespace runtime
}  // namespace jinfer
