// Session: one interactive inference session as a step-driven object.
//
// core::RunInference owns its loop — strategy, oracle and halt check run to
// completion inside one call, which fits a simulated oracle but not a
// runtime multiplexing many users: a real user answers on their own
// schedule, and a worker thread must be able to park a session between
// question and answer. Session splits Algorithm 1 at the interaction
// boundary:
//
//   NextQuestion()  — the strategy's pick, or nullopt once the session is
//                     finished (halt condition Γ).
//                     Idempotent: repeated calls return the same pending
//                     class without consulting the strategy again, so a
//                     caller may re-render a question freely.
//   Answer(label)   — applies the user's label to the pending question.
//
// The loop `while (auto q = s.NextQuestion()) s.Answer(oracle(*q));`
// reproduces RunInference exactly — same strategy call sequence, same
// trace, same timing discipline (time inside the two calls is inference
// time; everything between them is the user thinking).
//
// A session optionally shares ownership of its index
// (shared_ptr<const SignatureIndex>, the runtime::IndexCache handout), so
// the cache may evict an instance while sessions on it are still running.

#ifndef JINFER_RUNTIME_SESSION_H_
#define JINFER_RUNTIME_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/inference.h"
#include "core/inference_state.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "util/result.h"

namespace jinfer {
namespace runtime {

/// Session honors exactly the options RunInference honors — the same
/// struct, so the two surfaces cannot drift apart (the bit-for-bit
/// equivalence property depends on that).
using SessionOptions = core::InferenceOptions;

class Session {
 public:
  /// Shared-ownership form: the session keeps `index` alive (the
  /// IndexCache handout). `strategy` must be non-null.
  Session(std::shared_ptr<const core::SignatureIndex> index,
          std::unique_ptr<core::Strategy> strategy,
          SessionOptions options = {});

  /// Non-owning form for callers that guarantee the index outlives the
  /// session (tests, the experiment harness with a stack-built index).
  Session(const core::SignatureIndex& index,
          std::unique_ptr<core::Strategy> strategy,
          SessionOptions options = {});

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// The class to present next, or nullopt when the session is finished.
  /// Idempotent until the pending question is answered.
  std::optional<core::ClassId> NextQuestion();

  /// Applies the user's label to the pending question. Fails with
  /// FailedPrecondition when no question is pending, and propagates
  /// InconsistentSample (leaving the question pending and the state
  /// untouched) when the label contradicts the sample.
  util::Status Answer(core::Label label);

  /// True once NextQuestion has returned nullopt, i.e. Γ holds.
  bool Finished() const { return finished_; }

  size_t num_interactions() const { return num_interactions_; }

  /// T(S+) so far — the hypothesis a UI shows between questions, and the
  /// final answer once finished.
  const core::JoinPredicate& CurrentPredicate() const {
    return state_.InferredPredicate();
  }

  const core::SignatureIndex& index() const { return *index_; }
  const core::InferenceState& state() const { return state_; }
  const core::Strategy& strategy() const { return *strategy_; }

  /// Trace id stamped on this session's observability spans (question
  /// compute, answer apply); 0 = untraced. The server sets the session's
  /// wire id here, so the id a client names is the one a flight-recorder
  /// snapshot filters by.
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

  /// Snapshot in core::RunInference's result shape: predicate, interaction
  /// count, inference seconds (time inside NextQuestion/Answer only — user
  /// think-time between calls is excluded by construction), trace.
  core::InferenceResult Result() const;

 private:
  std::shared_ptr<const core::SignatureIndex> keepalive_;
  const core::SignatureIndex* index_;
  std::unique_ptr<core::Strategy> strategy_;
  SessionOptions options_;
  core::InferenceState state_;
  std::optional<core::ClassId> pending_;
  bool finished_ = false;
  size_t num_interactions_ = 0;
  uint64_t trace_id_ = 0;
  double seconds_ = 0;
  std::vector<core::InteractionRecord> trace_;
};

}  // namespace runtime
}  // namespace jinfer

#endif  // JINFER_RUNTIME_SESSION_H_
