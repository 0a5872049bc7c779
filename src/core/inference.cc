#include "core/inference.h"

#include "util/stopwatch.h"

namespace jinfer {
namespace core {

std::optional<ClassId> PickNext(Strategy& strategy,
                                const InferenceState& state) {
  std::optional<ClassId> next = strategy.SelectNext(state);
  if (!next) {
    // Halt condition Γ: the strategy may only give up when no informative
    // tuple remains.
    JINFER_CHECK(state.NumInformativeClasses() == 0,
                 "strategy %s returned no tuple with %zu informative "
                 "classes remaining",
                 strategy.name(), state.NumInformativeClasses());
    return std::nullopt;
  }
  // The bundled strategies only present informative tuples; a custom
  // strategy may present any unlabeled tuple (the user's answer is then
  // either redundant or — if it contradicts the sample — caught by
  // ApplyLabel, Algorithm 1 lines 6-7).
  JINFER_CHECK(state.state(*next) != TupleState::kLabeled,
               "strategy %s re-presented the already-labeled class %u",
               strategy.name(), *next);
  return next;
}

util::Result<InferenceResult> RunInference(const SignatureIndex& index,
                                           Strategy& strategy, Oracle& oracle,
                                           const InferenceOptions& options) {
  InferenceState state(index);
  InferenceResult result;
  util::Stopwatch watch;
  double oracle_seconds = 0;

  while (std::optional<ClassId> next = PickNext(strategy, state)) {
    uint64_t informative_before = state.InformativeTupleWeight();
    util::Stopwatch oracle_watch;
    Label label = oracle.LabelClass(index, *next);
    oracle_seconds += oracle_watch.ElapsedSeconds();

    JINFER_RETURN_NOT_OK(state.ApplyLabel(*next, label));
    ++result.num_interactions;
    if (options.record_trace) {
      result.trace.push_back(
          InteractionRecord{*next, label, informative_before});
    }
  }

  result.predicate = state.InferredPredicate();
  result.seconds = watch.ElapsedSeconds() - oracle_seconds;
  return result;
}

}  // namespace core
}  // namespace jinfer
