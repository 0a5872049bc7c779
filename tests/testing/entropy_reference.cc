#include "testing/entropy_reference.h"

namespace jinfer {
namespace core {

namespace {

/// The per-candidate recursion exactly as the batched EntropyRec computes
/// it, minus the batched bottom level: every child — leaf or not — is
/// evaluated by its own recursive call, and every leaf by its own
/// CountNewlyUninformativeBoth sweep.
Entropy EntropyRecReference(uint64_t root_weight, InferenceState& state,
                            ClassId cls, int remaining, uint64_t depth) {
  if (remaining == 1) {
    uint64_t removed_so_far = root_weight - state.InformativeTupleWeight();
    auto [newly_pos, newly_neg] = state.CountNewlyUninformativeBoth(cls);
    uint64_t up = removed_so_far + newly_pos - depth;
    uint64_t un = removed_so_far + newly_neg - depth;
    return Entropy::OfCounts(up, un);
  }

  Entropy per_label[2];
  for (Label label : {Label::kPositive, Label::kNegative}) {
    state.ApplyLabelScoped(cls, label);
    Entropy e;
    if (state.NumInformativeClasses() == 0) {
      e = Entropy::Infinite();
    } else {
      bool first = true;
      for (size_t i = 0; i < state.NumInformativeClasses(); ++i) {
        ClassId c2 = state.InformativeClassAt(i);
        Entropy inner = EntropyRecReference(root_weight, state, c2,
                                            remaining - 1, depth + 1);
        if (first || inner.min_u > e.min_u ||
            (inner.min_u == e.min_u && inner.max_u > e.max_u)) {
          e = inner;
          first = false;
        }
      }
    }
    state.UndoLabel();
    per_label[label == Label::kPositive ? 0 : 1] = e;
  }

  const Entropy& ep = per_label[0];
  const Entropy& en = per_label[1];
  if (ep.min_u != en.min_u) return ep.min_u < en.min_u ? ep : en;
  return ep.max_u <= en.max_u ? ep : en;
}

}  // namespace

Entropy EntropyKOfReference(const InferenceState& state, ClassId cls, int k) {
  if (k == 1) return EntropyOf(state, cls);
  JINFER_CHECK(k >= 1, "entropy lookahead depth must be >= 1, got %d", k);
  JINFER_CHECK(state.IsInformative(cls), "class %u is not informative", cls);
  InferenceState scratch = state;
  return EntropyRecReference(scratch.InformativeTupleWeight(), scratch, cls,
                             k, 0);
}

}  // namespace core
}  // namespace jinfer
