#include "core/entropy.h"

#include <algorithm>

#include "util/string_util.h"

namespace jinfer {
namespace core {

std::string Entropy::ToString() const {
  auto part = [](uint64_t v) {
    return v == kInfinity ? std::string("inf") : std::to_string(v);
  };
  return "(" + part(min_u) + "," + part(max_u) + ")";
}

bool Dominates(const Entropy& a, const Entropy& b) {
  return a.min_u >= b.min_u && a.max_u >= b.max_u;
}

std::vector<Entropy> Skyline(std::vector<Entropy> entropies) {
  std::sort(entropies.begin(), entropies.end());
  entropies.erase(std::unique(entropies.begin(), entropies.end()),
                  entropies.end());
  // Sweep by min descending, max descending: an entry survives iff its max
  // strictly exceeds every max seen so far (all earlier entries have min ≥).
  std::sort(entropies.begin(), entropies.end(),
            [](const Entropy& a, const Entropy& b) {
              if (a.min_u != b.min_u) return a.min_u > b.min_u;
              return a.max_u > b.max_u;
            });
  std::vector<Entropy> frontier;
  uint64_t best_max = 0;
  bool any = false;
  for (const Entropy& e : entropies) {
    if (!any || e.max_u > best_max) {
      frontier.push_back(e);
      best_max = e.max_u;
      any = true;
    }
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

Entropy SkylineMaxMin(const std::vector<Entropy>& entropies) {
  JINFER_CHECK(!entropies.empty(), "SkylineMaxMin on empty set");
  uint64_t m = 0;
  for (const Entropy& e : entropies) m = std::max(m, e.min_u);
  Entropy best{m, 0};
  bool found = false;
  for (const Entropy& e : entropies) {
    if (e.min_u == m && (!found || e.max_u > best.max_u)) {
      best = e;
      found = true;
    }
  }
  return best;
}

Entropy EntropyOf(const InferenceState& state, ClassId cls) {
  auto [up, un] = state.CountNewlyUninformativeBoth(cls);
  return Entropy::OfCounts(up, un);
}

void EntropyOfAll(const InferenceState& state, EntropyBatchScratch& scratch,
                  std::vector<Entropy>& out) {
  state.CountNewlyUninformativeAll(scratch.u_pos, scratch.u_neg);
  const size_t n = scratch.u_pos.size();
  out.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Entropy::OfCounts(scratch.u_pos[i], scratch.u_neg[i]);
  }
}

namespace {

/// Recursive entropy^k over a single mutable state. `root_weight` is the
/// informative tuple weight of the original state; `depth` is the number of
/// labels already applied below the root. Leaf counts are
/// |Uninf(S ∪ labels) \ Uninf(S)| minus the labeled tuples themselves,
/// computed incrementally (no state copy at leaves).
///
/// Inner nodes simulate each label with ApplyLabelScoped/UndoLabel instead
/// of copying the state, and fold the children through a streaming
/// lexicographic max — equivalent to SkylineMaxMin (max of the minima,
/// ties to the larger max) without materializing the entropy vector. The
/// state is restored exactly before returning, so iterating the informative
/// list by index across recursive calls is safe.
///
/// The bottom level is batched: when every child is a leaf, one
/// CountNewlyUninformativeAll sweep scores all of them and the fold runs
/// over the returned columns in the same candidate order as the
/// per-candidate recursion (tests/testing/entropy_reference.h), so the
/// streaming max — first candidate wins ties — picks identically.
Entropy EntropyRec(uint64_t root_weight, InferenceState& state,
                   EntropyBatchScratch& scratch, ClassId cls, int remaining,
                   uint64_t depth) {
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
      // Labeling this way ends the session: the best possible outcome
      // (Algorithm 5 lines 3-5).
      e = Entropy::Infinite();
    } else if (remaining == 2) {
      // All children are leaves: one batched sweep replaces one
      // CountNewlyUninformativeBoth per candidate.
      state.CountNewlyUninformativeAll(scratch.u_pos, scratch.u_neg);
      const uint64_t removed = root_weight - state.InformativeTupleWeight();
      const uint64_t d = depth + 1;
      for (size_t i = 0; i < scratch.u_pos.size(); ++i) {
        Entropy inner = Entropy::OfCounts(removed + scratch.u_pos[i] - d,
                                          removed + scratch.u_neg[i] - d);
        if (i == 0 || inner.min_u > e.min_u ||
            (inner.min_u == e.min_u && inner.max_u > e.max_u)) {
          e = inner;
        }
      }
    } else {
      bool first = true;
      for (size_t i = 0; i < state.NumInformativeClasses(); ++i) {
        ClassId c2 = state.InformativeClassAt(i);
        Entropy inner = EntropyRec(root_weight, state, scratch, c2,
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

  // Adversarial combine (Algorithm 5 lines 13-14): keep the label whose
  // guaranteed information is smaller; on equal mins keep the smaller max
  // (the more conservative promise).
  const Entropy& ep = per_label[0];
  const Entropy& en = per_label[1];
  if (ep.min_u != en.min_u) return ep.min_u < en.min_u ? ep : en;
  return ep.max_u <= en.max_u ? ep : en;
}

}  // namespace

Entropy EntropyKOfInPlace(InferenceState& state, ClassId cls, int k,
                          EntropyBatchScratch& scratch) {
  JINFER_CHECK(k >= 1, "entropy lookahead depth must be >= 1, got %d", k);
  JINFER_CHECK(state.IsInformative(cls), "class %u is not informative", cls);
  return EntropyRec(state.InformativeTupleWeight(), state, scratch, cls, k,
                    0);
}

Entropy EntropyKOfInPlace(InferenceState& state, ClassId cls, int k) {
  EntropyBatchScratch scratch;
  return EntropyKOfInPlace(state, cls, k, scratch);
}

Entropy EntropyKOf(const InferenceState& state, ClassId cls, int k) {
  if (k == 1) return EntropyOf(state, cls);  // Leaf math, no simulation.
  InferenceState scratch = state;  // One copy per call, none per tree node.
  return EntropyKOfInPlace(scratch, cls, k);
}

}  // namespace core
}  // namespace jinfer
