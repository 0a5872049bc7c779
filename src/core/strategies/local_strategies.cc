#include "core/strategies/local_strategies.h"

#include <span>

namespace jinfer {
namespace core {

namespace {

/// The first informative class of `order`, one of the index's visiting
/// orders. The paper leaves tie-breaking arbitrary; both orders break ties
/// by lowest ClassId.
std::optional<ClassId> FirstInformative(const InferenceState& state,
                                        std::span<const ClassId> order) {
  for (ClassId c : order) {
    if (state.IsInformative(c)) return c;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ClassId> BottomUpStrategy::SelectNext(
    const InferenceState& state) {
  // The smallest informative |T(t)|: the index lists classes by size.
  return FirstInformative(state, state.index().ClassesBySize());
}

std::optional<ClassId> TopDownStrategy::SelectNext(
    const InferenceState& state) {
  const SignatureIndex& index = state.index();
  if (state.HasPositiveExample()) {
    // Lines 3-5: behave like BU.
    return FirstInformative(state, index.ClassesBySize());
  }
  // Lines 1-2: an informative tuple with ⊆-maximal signature. While the
  // sample is all-negative, an unlabeled maximal class is informative
  // unless its signature is Ω (born certain-positive). Such a class
  // strictly contains every other signature, so it is the only maximal
  // one; then any informative class will do, and the lowest id is taken.
  if (auto pick = FirstInformative(state, index.MaximalClasses())) {
    return pick;
  }
  if (state.NumInformativeClasses() == 0) return std::nullopt;
  return state.InformativeClassAt(0);
}

}  // namespace core
}  // namespace jinfer
