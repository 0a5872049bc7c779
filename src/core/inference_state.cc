#include "core/inference_state.h"

#include <algorithm>

#include "util/bitset.h"
#include "util/simd/sweep.h"

namespace jinfer {
namespace core {

namespace {

// Word loops over the packed arrays, with the active word count W fixed at
// compile time by util::WithWidth (util/bitset.h) so every loop fully
// unrolls. The predicates use branch-free
// accumulators so the loop body carries no early-out dependence.

/// dst[w] = a[w] & b[w].
template <size_t W>
inline void And2Words(uint64_t* dst, const uint64_t* a, const uint64_t* b) {
  for (size_t w = 0; w < W; ++w) dst[w] = a[w] & b[w];
}

/// True iff a ⊆ b.
template <size_t W>
inline bool IsSubsetWords(const uint64_t* a, const uint64_t* b) {
  uint64_t stray = 0;
  for (size_t w = 0; w < W; ++w) stray |= a[w] & ~b[w];
  return stray == 0;
}

/// True iff a == b.
template <size_t W>
inline bool EqualWords(const uint64_t* a, const uint64_t* b) {
  uint64_t diff = 0;
  for (size_t w = 0; w < W; ++w) diff |= a[w] ^ b[w];
  return diff == 0;
}

/// Lemma 3.4 against every witness: true iff key ⊆ witnesses[k] for some
/// k, where `witnesses` is a flat array of `num` stride-W rows.
template <size_t W>
inline bool AnyWitnessContains(const uint64_t* key, const uint64_t* witnesses,
                               size_t num) {
  for (size_t k = 0; k < num; ++k) {
    if (IsSubsetWords<W>(key, witnesses + k * W)) return true;
  }
  return false;
}

}  // namespace

InferenceState::InferenceState(const SignatureIndex& index)
    : index_(&index),
      states_(index.num_classes(), TupleState::kInformative),
      pos_predicate_(index.omega().Full()),
      active_words_(JoinPredicate::WordsFor(index.omega().size())) {
  // The empty sample in one pass: with T(S+) = Ω, Lemma 3.3 makes a class
  // certain-positive iff its signature is Ω, and with no witness Lemma 3.4
  // certifies nothing. Every other class is informative with key
  // Ω ∩ T(c) = T(c).
  const size_t W = active_words_;
  informative_.reserve(index.num_classes());
  inf_sigs_.reserve(index.num_classes() * W);
  inf_counts_.reserve(index.num_classes());
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    const SignatureClass& sc = index.cls(c);
    if (sc.signature == pos_predicate_) {
      states_[c] = TupleState::kCertainPositive;
      continue;
    }
    informative_.push_back(c);
    informative_weight_ += sc.count;
    for (size_t w = 0; w < W; ++w) inf_sigs_.push_back(sc.signature.word(w));
    inf_counts_.push_back(sc.count);
  }
  inf_keys_ = inf_sigs_;
}

util::Status InferenceState::ApplyLabel(ClassId cls, Label label) {
  JINFER_CHECK(cls < index_->num_classes(), "class %u out of range", cls);
  const JoinPredicate& sig = index_->cls(cls).signature;

  // Algorithm 1 lines 6–7 read the maintained classification: every label
  // keeps states_ equal to Lemmas 3.3/3.4 over the whole sample.
  const TupleState current = states_[cls];
  if (current == TupleState::kLabeled) {
    for (const auto& ex : sample_) {
      if (ex.cls == cls && ex.label != label) {
        return util::Status::InconsistentSample(
            "tuple with signature " + index_->omega().Format(sig) +
            " labeled both + and -");
      }
    }
    return util::Status::OK();  // Duplicate example: a sample is a set.
  }
  if (label == Label::kPositive && current == TupleState::kCertainNegative) {
    return util::Status::InconsistentSample(
        "positive label contradicts the sample: no consistent predicate "
        "selects the tuple with signature " +
        index_->omega().Format(sig));
  }
  if (label == Label::kNegative && current == TupleState::kCertainPositive) {
    return util::Status::InconsistentSample(
        "negative label contradicts the sample: every consistent predicate "
        "selects the tuple with signature " +
        index_->omega().Format(sig));
  }

  ApplyLabelIncremental(cls, label, /*record=*/false);
  return util::Status::OK();
}

void InferenceState::ApplyLabelScoped(ClassId cls, Label label) {
  JINFER_CHECK(IsInformative(cls), "class %u is not informative", cls);
  ApplyLabelIncremental(cls, label, /*record=*/true);
}

template <size_t W>
__attribute__((always_inline)) inline void InferenceState::ApplyLabelW(
    ClassId cls, Label label, bool record) {
  const SignatureClass& labeled_class = index_->cls(cls);
  const JoinPredicate& sig_t = labeled_class.signature;

  if (record) {
    delta_frames_.push_back(DeltaFrame{delta_transitions_.size(), cls, label,
                                       has_positive_, pos_predicate_,
                                       informative_weight_});
  }
  sample_.push_back(ClassExample{cls, label});

  const bool was_informative = states_[cls] == TupleState::kInformative;
  if (record) delta_transitions_.emplace_back(cls, states_[cls]);
  states_[cls] = TupleState::kLabeled;
  if (was_informative) informative_weight_ -= labeled_class.count;

  // Certainty is monotone under a consistent sample (T(S+) and the keys
  // only shrink), so the sweeps below visit informative classes only and
  // compact the survivors in place, preserving the sorted order. Forward
  // copies are safe: the write cursor never passes the read cursor.
  uint64_t sigw[W];
  for (size_t w = 0; w < W; ++w) sigw[w] = sig_t.word(w);
  const size_t n = informative_.size();
  size_t write = 0;
  if (label == Label::kPositive) {
    pos_predicate_ &= sig_t;
    has_positive_ = true;
    uint64_t posw[W];
    for (size_t w = 0; w < W; ++w) posw[w] = pos_predicate_.word(w);
    const size_t num_negs = neg_words_.size() / W;
    for (size_t i = 0; i < n; ++i) {
      ClassId c = informative_[i];
      if (c == cls) continue;
      uint64_t key2[W];
      And2Words<W>(key2, &inf_keys_[i * W], sigw);
      TupleState next = TupleState::kInformative;
      if (EqualWords<W>(key2, posw)) {
        next = TupleState::kCertainPositive;  // Lemma 3.3: T(S+) ⊆ T(c).
      } else if (AnyWitnessContains<W>(key2, neg_words_.data(), num_negs)) {
        // Lemma 3.4 against every witness: shrinking T(S+) weakens its
        // premise, so old witnesses can newly apply.
        next = TupleState::kCertainNegative;
      }
      if (next == TupleState::kInformative) {
        informative_[write] = c;
        std::copy_n(key2, W, &inf_keys_[write * W]);
        std::copy_n(&inf_sigs_[i * W], W, &inf_sigs_[write * W]);
        inf_counts_[write] = inf_counts_[i];
        ++write;
      } else {
        if (record) delta_transitions_.emplace_back(c, states_[c]);
        states_[c] = next;
        informative_weight_ -= inf_counts_[i];
      }
    }
  } else {
    neg_words_.insert(neg_words_.end(), sigw, sigw + W);
    for (size_t i = 0; i < n; ++i) {
      ClassId c = informative_[i];
      if (c == cls) continue;
      // T(S+) is unchanged; only the new witness T(t) can newly certify
      // a still-informative class negative (Lemma 3.4 — the old
      // witnesses already failed for it).
      if (IsSubsetWords<W>(&inf_keys_[i * W], sigw)) {
        if (record) delta_transitions_.emplace_back(c, states_[c]);
        states_[c] = TupleState::kCertainNegative;
        informative_weight_ -= inf_counts_[i];
      } else {
        informative_[write] = c;
        std::copy_n(&inf_keys_[i * W], W, &inf_keys_[write * W]);
        std::copy_n(&inf_sigs_[i * W], W, &inf_sigs_[write * W]);
        inf_counts_[write] = inf_counts_[i];
        ++write;
      }
    }
  }
  informative_.resize(write);
  inf_keys_.resize(write * W);
  inf_sigs_.resize(write * W);
  inf_counts_.resize(write);
}

template <size_t W>
__attribute__((always_inline)) inline void InferenceState::UndoLabelW() {
  JINFER_CHECK(!delta_frames_.empty(), "UndoLabel without a scoped label");
  const DeltaFrame frame = delta_frames_.back();
  delta_frames_.pop_back();

  JINFER_CHECK(!sample_.empty() && sample_.back().cls == frame.cls &&
                   sample_.back().label == frame.label,
               "delta stack out of sync with the sample");
  sample_.pop_back();
  const bool undo_positive = frame.label == Label::kPositive;
  if (undo_positive) {
    pos_predicate_ = frame.old_pos;
    has_positive_ = frame.old_has_positive;
  } else {
    neg_words_.resize(neg_words_.size() - W);
  }
  informative_weight_ = frame.old_weight;

  // Restore the recorded transitions and collect the classes that re-enter
  // the informative pool (ascending except possibly the labeled class,
  // which was recorded first).
  undo_scratch_.clear();
  for (size_t i = frame.transitions_begin; i < delta_transitions_.size();
       ++i) {
    const auto& [c, old_state] = delta_transitions_[i];
    states_[c] = old_state;
    if (old_state == TupleState::kInformative) undo_scratch_.push_back(c);
  }
  delta_transitions_.resize(frame.transitions_begin);
  std::sort(undo_scratch_.begin(), undo_scratch_.end());

  // Merge the restored classes back into the sorted informative list and
  // the packed arrays in one backwards pass. The destination block index
  // always exceeds the source block index while re-entrants remain, so the
  // word copies never overlap; the survivor prefix below the last
  // re-entrant is already in place and untouched. Re-entrant rows are
  // refilled from the class table, with keys recomputed as pos ∩ sig —
  // exact for a negative undo, provisional for a positive one (see below).
  uint64_t posw[W];
  for (size_t w = 0; w < W; ++w) posw[w] = pos_predicate_.word(w);
  const size_t survivors = informative_.size();
  informative_.resize(survivors + undo_scratch_.size());
  inf_keys_.resize(informative_.size() * W);
  inf_sigs_.resize(informative_.size() * W);
  inf_counts_.resize(informative_.size());
  size_t a = survivors;
  size_t b = undo_scratch_.size();
  size_t out = informative_.size();
  while (b > 0) {
    if (a > 0 && informative_[a - 1] > undo_scratch_[b - 1]) {
      --a;
      --out;
      informative_[out] = informative_[a];
      std::copy_n(&inf_keys_[a * W], W, &inf_keys_[out * W]);
      std::copy_n(&inf_sigs_[a * W], W, &inf_sigs_[out * W]);
      inf_counts_[out] = inf_counts_[a];
    } else {
      --b;
      --out;
      const ClassId c = undo_scratch_[b];
      const SignatureClass& sc = index_->cls(c);
      informative_[out] = c;
      for (size_t w = 0; w < W; ++w) {
        const uint64_t sig = sc.signature.word(w);
        inf_sigs_[out * W + w] = sig;
        inf_keys_[out * W + w] = posw[w] & sig;
      }
      inf_counts_[out] = sc.count;
    }
  }

  // A positive undo re-widens T(S+), so every surviving class's key must
  // be recomputed against the restored predicate: one flat pos ∩ sig pass
  // over the packed signatures. A negative undo never changes keys.
  if (undo_positive) {
    for (size_t i = 0; i < informative_.size(); ++i) {
      And2Words<W>(&inf_keys_[i * W], posw, &inf_sigs_[i * W]);
    }
  }
}

template <size_t W>
__attribute__((always_inline)) inline std::pair<uint64_t, uint64_t>
InferenceState::CountBothW(ClassId cls) const {
  const SignatureClass& labeled_class = index_->cls(cls);
  // The remaining members of the labeled tuple's own class always become
  // uninformative; the labeled tuple itself is excluded (Figure 5).
  uint64_t newly_pos = labeled_class.count - 1;
  uint64_t newly_neg = labeled_class.count - 1;
  // A positive label shrinks T(S+) to P′ = T(S+) ∩ T(t): classes above P′
  // become certain+ (Lemma 3.3) and Cert− is re-evaluated against P′ over
  // every witness (Lemma 3.4). A negative label leaves T(S+) alone, so only
  // the new witness T(t) can certify a class negative.
  uint64_t sigw[W];
  uint64_t pos2[W];
  for (size_t w = 0; w < W; ++w) {
    sigw[w] = labeled_class.signature.word(w);
    pos2[w] = pos_predicate_.word(w) & sigw[w];
  }
  const size_t num_negs = neg_words_.size() / W;
  const size_t n = informative_.size();
  for (size_t i = 0; i < n; ++i) {
    if (informative_[i] == cls) continue;
    const uint64_t* key = &inf_keys_[i * W];
    const uint64_t cnt = inf_counts_[i];
    if (IsSubsetWords<W>(key, sigw)) newly_neg += cnt;
    uint64_t key2[W];
    And2Words<W>(key2, key, sigw);
    if (EqualWords<W>(key2, pos2) ||
        AnyWitnessContains<W>(key2, neg_words_.data(), num_negs)) {
      newly_pos += cnt;
    }
  }
  return {newly_pos, newly_neg};
}

void InferenceState::ApplyLabelIncremental(ClassId cls, Label label,
                                           bool record) {
  util::WithWidth(active_words_,
                  [&](auto width) __attribute__((always_inline)) {
                    ApplyLabelW<decltype(width)::value>(cls, label, record);
                  });
}

void InferenceState::UndoLabel() {
  util::WithWidth(active_words_,
                  [&](auto width) __attribute__((always_inline)) {
                    UndoLabelW<decltype(width)::value>();
                  });
}

std::pair<uint64_t, uint64_t> InferenceState::CountNewlyUninformativeBoth(
    ClassId cls) const {
  JINFER_CHECK(IsInformative(cls), "class %u is not informative", cls);
  return util::WithWidth(active_words_,
                         [&](auto width) __attribute__((always_inline)) {
                           return CountBothW<decltype(width)::value>(cls);
                         });
}

void InferenceState::CountNewlyUninformativeAll(
    std::vector<uint64_t>& u_pos, std::vector<uint64_t>& u_neg) const {
  const size_t n = informative_.size();
  u_pos.resize(n);
  u_neg.resize(n);

  // The fused u± sweep lives in the runtime-dispatched kernel layer
  // (util/simd/sweep.h, DESIGN.md §12.4): one candidate t_j per output
  // slot, its signature and cached key held in registers (or candidate
  // lanes, on the vector backends); the inner loop streams every
  // informative class i from the contiguous packed key/count arrays,
  // accumulating both u-counts without per-pair stores. Candidate j's
  // post-positive predicate P′ = T(S+) ∩ T(t_j) is exactly its own cached
  // key, so the Cert+ test needs no per-candidate scratch, and the
  // i == j self term is folded out by the driver's flat −1 correction.
  // Above the cache budget the driver tiles the i×j plane; the columns
  // are bit-identical for every backend and tiling.
  util::simd::SweepArgs args;
  args.keys = inf_keys_.data();
  args.sigs = inf_sigs_.data();
  args.cnts = inf_counts_.data();
  args.negs = neg_words_.data();
  args.num_negs = neg_words_.size() / active_words_;
  args.words = active_words_;
  args.n = n;
  util::simd::SweepUCounts(args, u_pos.data(), u_neg.data());
}

InferenceState InferenceState::WithLabel(ClassId cls, Label label) const {
  JINFER_CHECK(IsInformative(cls), "class %u is not informative", cls);
  InferenceState copy = *this;
  util::Status st = copy.ApplyLabel(cls, label);
  JINFER_CHECK(st.ok(), "labeling an informative class cannot fail: %s",
               st.ToString().c_str());
  return copy;
}

}  // namespace core
}  // namespace jinfer
