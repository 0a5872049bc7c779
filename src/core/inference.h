// The general inference algorithm (Algorithm 1, §4.1).
//
// Repeatedly asks the strategy for an informative tuple, obtains its label
// from the oracle, and updates the inference state, until the halt
// condition Γ (no informative tuple left) holds. Returns T(S+) — the most
// specific predicate consistent with the collected sample, which is
// instance-equivalent to the user's goal (§3.3). An oracle that labels
// inconsistently makes the session fail with InconsistentSample.
//
// This is the run-to-completion form for callers that own both sides of
// the interaction (simulated oracles, tests). The step-driven equivalent
// — question and answer as separate calls, for users who answer on their
// own schedule — is runtime::Session, which reproduces this loop
// bit-for-bit (property-tested in tests/runtime/session_test.cc). Both
// pick through PickNext below.
//
// The paper notes the user may stop early and accept the current T(S+).
// That is the step API's job: a caller stops asking and reads
// Session::CurrentPredicate() (interactive_cli's --deadline-ms and Ctrl-C
// do exactly that).

#ifndef JINFER_CORE_INFERENCE_H_
#define JINFER_CORE_INFERENCE_H_

#include <optional>
#include <vector>

#include "core/inference_state.h"
#include "core/oracle.h"
#include "core/strategy.h"
#include "util/result.h"

namespace jinfer {
namespace core {

struct InferenceOptions {
  /// Record the per-interaction trace in the result.
  bool record_trace = true;
};

/// One user interaction as recorded in the trace.
struct InteractionRecord {
  ClassId cls;                  ///< Class of the presented tuple.
  Label label;                  ///< The user's answer.
  uint64_t informative_before;  ///< Informative tuple weight before asking.
};

struct InferenceResult {
  JoinPredicate predicate;  ///< T(S+) at halt.
  size_t num_interactions = 0;
  double seconds = 0;  ///< Wall time excluding oracle think-time.
  std::vector<InteractionRecord> trace;
};

/// Algorithm 1's pick: the strategy's next class, or nullopt once the halt
/// condition Γ holds. Aborts when the strategy gives up while informative
/// tuples remain, or re-presents an already-labeled class.
std::optional<ClassId> PickNext(Strategy& strategy,
                                const InferenceState& state);

/// Runs Algorithm 1. Fails with InconsistentSample when the oracle's labels
/// admit no consistent predicate.
///
/// Note on noisy oracles: labeling an *informative* tuple keeps the sample
/// consistent whichever answer is given, so a lying user is only ever
/// caught when answering a tuple whose label was already certain. The
/// bundled strategies present informative tuples exclusively; under them a
/// lie silently redirects the inference instead of failing it.
util::Result<InferenceResult> RunInference(const SignatureIndex& index,
                                           Strategy& strategy, Oracle& oracle,
                                           const InferenceOptions& options = {});

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_INFERENCE_H_
