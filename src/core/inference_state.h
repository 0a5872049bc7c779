// InferenceState: the mutable state of one interactive inference session —
// the sample gathered so far plus the certain/informative classification of
// every signature class (§3.4).
//
// Classification is by the paper's PTIME characterizations:
//   Lemma 3.3: t ∈ Cert+(S)  iff  T(S+) ⊆ T(t)
//   Lemma 3.4: t ∈ Cert−(S)  iff  ∃ t′ ∈ S−. T(S+) ∩ T(t) ⊆ T(t′)
// A tuple is informative iff it is unlabeled and in neither Cert set
// (Theorem 3.5).
//
// Classification is monotone: under a consistent sample a class only ever
// moves out of the informative pool, never back. The state exploits this by
// maintaining (a) a sorted compact list of the currently-informative
// classes and (b) a cached key word pos ∩ sig per class, so applying a
// label touches only informative classes:
//   negative label:  O(|informative|) word ops — one subset test against
//                    the new witness per informative class (existing
//                    witnesses already failed for them);
//   positive label:  O(|informative| · (1 + |S−|)) word ops.
// This incremental sweep is the only place the lemmas are evaluated: the
// constructor classifies the empty sample directly (Cert+ iff T(t) = Ω),
// and ApplyLabel's consistency check reads the maintained classification.
// Apply, undo and the u± pair each have one body, templated on the active
// word count W = 1..4 and picked by one width switch.
//
// For the lookahead strategies' simulation tree, ApplyLabelScoped/UndoLabel
// push and pop (ClassId, old TupleState) records on an internal delta stack:
// simulating a label and reverting it is allocation-free once the stack has
// warmed up, and never copies the state. The state also remains cheaply
// copyable (O(#classes)) for callers that prefer value semantics
// (WithLabel).

#ifndef JINFER_CORE_INFERENCE_STATE_H_
#define JINFER_CORE_INFERENCE_STATE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/sample.h"
#include "core/signature_index.h"
#include "core/types.h"
#include "util/result.h"

namespace jinfer {
namespace core {

/// Classification of a class w.r.t. the current sample.
enum class TupleState : uint8_t {
  kInformative,
  kLabeled,
  kCertainPositive,
  kCertainNegative,
};

class InferenceState {
 public:
  explicit InferenceState(const SignatureIndex& index);

  const SignatureIndex& index() const { return *index_; }

  /// Records the user's label for an (informative) class and re-classifies.
  /// Fails with InconsistentSample when the label contradicts the sample —
  /// i.e. when the class was certain for the opposite label (Algorithm 1
  /// lines 6–7); the state is left unchanged in that case.
  util::Status ApplyLabel(ClassId cls, Label label);

  /// Applies a label to an *informative* class (then either label keeps the
  /// sample consistent) and records an undo frame on the internal delta
  /// stack. Pair every call with UndoLabel to simulate labelings in place —
  /// the lookahead hot path. Frames unwind strictly LIFO.
  void ApplyLabelScoped(ClassId cls, Label label);

  /// Reverts the most recent ApplyLabelScoped, restoring the classification,
  /// counters, key cache and sample exactly.
  void UndoLabel();

  TupleState state(ClassId cls) const { return states_[cls]; }
  bool IsInformative(ClassId cls) const {
    return states_[cls] == TupleState::kInformative;
  }

  /// Classes still informative, in increasing ClassId order.
  std::vector<ClassId> InformativeClasses() const { return informative_; }

  /// The i-th informative class (increasing ClassId order). Stable across an
  /// ApplyLabelScoped/UndoLabel pair, so callers may iterate by index while
  /// simulating labels between accesses.
  ClassId InformativeClassAt(size_t i) const { return informative_[i]; }

  /// Number of informative classes.
  size_t NumInformativeClasses() const { return informative_.size(); }

  /// Number of informative *tuples* of D (classes weighted by multiplicity).
  uint64_t InformativeTupleWeight() const { return informative_weight_; }

  /// The sample gathered so far, in labeling order.
  const Sample& sample() const { return sample_; }

  /// T(S+); equals Ω while no positive example exists. This is also the
  /// predicate returned to the user at halt (§3.3 instance-equivalence).
  const JoinPredicate& InferredPredicate() const { return pos_predicate_; }

  bool HasPositiveExample() const { return has_positive_; }

  /// u+(t) and u−(t): the number of tuples (weighted) that would newly
  /// become uninformative if class `cls` were labeled positive or
  /// negative, excluding the labeled tuple itself — the paper's u±
  /// quantities feeding entropy (§4.4). One read-only sweep over the
  /// informative list computes both, since they share every per-class
  /// load: O(|informative| · (1 + |S−|)) word ops. `cls` must be
  /// informative. Returns {u+, u−}.
  std::pair<uint64_t, uint64_t> CountNewlyUninformativeBoth(
      ClassId cls) const;

  /// u+(t) and u−(t) for *every* informative class in one pass: on return
  /// u_pos[j] / u_neg[j] hold the counts for InformativeClassAt(j). This is
  /// the column-wise batch form of CountNewlyUninformativeBoth — the outer
  /// loop streams each informative class's key/count once and scores all
  /// candidates against it, so the candidate loop runs over the contiguous
  /// packed signature array with no per-candidate re-derivation. The
  /// labeled class's self-exclusion is folded out of the inner loop: a
  /// candidate always newly-uninformativizes its own class under either
  /// label, so the sweep counts it and subtracts one at the end, keeping
  /// the inner loop branch-free. Bit-identical to calling
  /// CountNewlyUninformativeBoth per candidate (sums are exact integers;
  /// only the association order differs). Buffers are caller-owned so
  /// concurrent sweeps on per-thread states share nothing.
  void CountNewlyUninformativeAll(std::vector<uint64_t>& u_pos,
                                  std::vector<uint64_t>& u_neg) const;

  /// Copy of the state with one more label applied. `cls` must be
  /// informative (then either label keeps the sample consistent).
  InferenceState WithLabel(ClassId cls, Label label) const;

  /// Process-wide count of InferenceState copy operations (copy
  /// construction and copy assignment; moves are free and uncounted). Test
  /// instrumentation backing the "the search hot path never copies the
  /// state" assertions on the minimax engine and the lookahead tree.
  static uint64_t CopyCount() {
    return copy_count_.load(std::memory_order_relaxed);
  }

 private:
  /// Undo frame for one applied label: where this frame's transition records
  /// start on the shared stack, plus the scalar state to restore.
  struct DeltaFrame {
    size_t transitions_begin;
    ClassId cls;
    Label label;
    bool old_has_positive;
    JoinPredicate old_pos;
    uint64_t old_weight;
  };

  /// Incremental application shared by ApplyLabel and ApplyLabelScoped.
  /// When `record` is true an undo frame is pushed onto the delta stack.
  void ApplyLabelIncremental(ClassId cls, Label label, bool record);

  // The bodies of ApplyLabelIncremental, UndoLabel and
  // CountNewlyUninformativeBoth, with the active word count fixed at
  // compile time. inference_state.cc's one width switch picks W = 1..4.
  template <size_t W>
  void ApplyLabelW(ClassId cls, Label label, bool record);
  template <size_t W>
  void UndoLabelW();
  template <size_t W>
  std::pair<uint64_t, uint64_t> CountBothW(ClassId cls) const;

  const SignatureIndex* index_;
  Sample sample_;
  std::vector<TupleState> states_;  // kLabeled iff the class is in sample_.
  JoinPredicate pos_predicate_;     // T(S+), starts at Ω.
  bool has_positive_ = false;
  uint64_t informative_weight_ = 0;

  /// Currently-informative classes, sorted by ClassId. The per-label sweeps
  /// only walk this list.
  std::vector<ClassId> informative_;
  /// ceil(|Ω| / 64), min 1 and at most JoinPredicate::kWords: every
  /// predicate lives inside Ω, so the hot sweeps run their word loops over
  /// this many words instead of all four — the active-word prefix.
  size_t active_words_ = JoinPredicate::kWords;

  // Packed columnar sweep arrays (DESIGN.md §12), class-major with stride
  // W = active_words_: for the i-th informative class, words [i·W, i·W+W)
  // of inf_keys_ hold its key T(S+) ∩ T(c), the same slice of inf_sigs_
  // holds its signature T(c), and inf_counts_[i] its tuple count, all in
  // informative_ order. neg_words_ is the only store of the negative
  // witnesses {T(t) | t ∈ S−}: W words each, in labeling order, so
  // |S−| = neg_words_.size() / W. The per-label sweeps, the u± counts and
  // the batch candidate sweep stream these flat uint64_t arrays with plain
  // word loops instead of chasing 32-byte bitsets and 64-byte
  // SignatureClass records — the sweeps are memory-bound, and at one word
  // this cuts the touched bytes per class from ~96 to 24. The Cert+ test
  // is key == T(S+) (Lemma 3.3 via keys); Cert− is key ⊆ some witness
  // (Lemma 3.4). Signatures ride along so a positive undo can recompute
  // every key with one flat pos ∩ sig pass and the batch sweep can read
  // candidate signatures contiguously.
  std::vector<uint64_t> inf_keys_;
  std::vector<uint64_t> inf_sigs_;
  std::vector<uint64_t> inf_counts_;
  std::vector<uint64_t> neg_words_;

  // Delta stack for ApplyLabelScoped/UndoLabel: transition records shared
  // across frames so repeated simulate/undo cycles stop allocating.
  std::vector<std::pair<ClassId, TupleState>> delta_transitions_;
  std::vector<DeltaFrame> delta_frames_;
  std::vector<ClassId> undo_scratch_;  // Reused merge buffer for UndoLabel.

  /// Zero-size-in-spirit member whose copy operations bump the process-wide
  /// copy counter, so the implicitly-defined copy constructor/assignment of
  /// InferenceState stay instrumented without hand-listing every member.
  struct CopyProbe {
    CopyProbe() = default;
    CopyProbe(const CopyProbe&) {
      copy_count_.fetch_add(1, std::memory_order_relaxed);
    }
    CopyProbe& operator=(const CopyProbe&) {
      copy_count_.fetch_add(1, std::memory_order_relaxed);
      return *this;
    }
    CopyProbe(CopyProbe&&) noexcept = default;
    CopyProbe& operator=(CopyProbe&&) noexcept = default;
  };
  CopyProbe copy_probe_;

  inline static std::atomic<uint64_t> copy_count_{0};
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_INFERENCE_STATE_H_
