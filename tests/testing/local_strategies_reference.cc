#include "testing/local_strategies_reference.h"

namespace jinfer {
namespace core {

namespace {

/// Smallest-|T(t)| informative class; lowest ClassId breaks ties (the paper
/// leaves tie-breaking arbitrary).
std::optional<ClassId> SmallestSignature(const InferenceState& state) {
  const SignatureIndex& index = state.index();
  std::optional<ClassId> best;
  size_t best_size = 0;
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    if (!state.IsInformative(c)) continue;
    size_t size = index.cls(c).signature.Count();
    if (!best || size < best_size) {
      best = c;
      best_size = size;
    }
  }
  return best;
}

}  // namespace

std::optional<ClassId> ReferenceBottomUpPick(const InferenceState& state) {
  return SmallestSignature(state);
}

std::optional<ClassId> ReferenceTopDownPick(const InferenceState& state) {
  if (state.HasPositiveExample()) {
    return SmallestSignature(state);  // Lines 3-5: behave like BU.
  }
  // Lines 1-2: an informative tuple with ⊆-maximal signature. While the
  // sample is all-negative, every unlabeled maximal-signature class is
  // informative, so one exists whenever any informative class does.
  const SignatureIndex& index = state.index();
  std::optional<ClassId> fallback;
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    if (!state.IsInformative(c)) continue;
    if (index.cls(c).maximal) return c;
    if (!fallback) fallback = c;
  }
  return fallback;
}

}  // namespace core
}  // namespace jinfer
