#include "core/inference_state.h"

#include <algorithm>

#include "util/simd/sweep.h"

namespace jinfer {
namespace core {

namespace {

// Word loops over the packed arrays, for the multi-word (2..4) paths. The
// predicates use branch-free accumulators so the loop body carries no
// early-out dependence; at these word counts the saved mispredicts
// outweigh the skipped words.

/// dst[w] = a[w] & b[w].
inline void And2Words(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                      size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] = a[w] & b[w];
}

/// True iff a ⊆ b.
inline bool IsSubsetWords(const uint64_t* a, const uint64_t* b, size_t words) {
  uint64_t stray = 0;
  for (size_t w = 0; w < words; ++w) stray |= a[w] & ~b[w];
  return stray == 0;
}

/// True iff a == b.
inline bool EqualWords(const uint64_t* a, const uint64_t* b, size_t words) {
  uint64_t diff = 0;
  for (size_t w = 0; w < words; ++w) diff |= a[w] ^ b[w];
  return diff == 0;
}

/// Lemma 3.4 against every witness: true iff key ⊆ witnesses[k] for some
/// k, where `witnesses` is a flat array of `num` stride-`words` rows.
inline bool AnyWitnessContains(const uint64_t* key, const uint64_t* witnesses,
                               size_t num, size_t words) {
  for (size_t k = 0; k < num; ++k) {
    if (IsSubsetWords(key, witnesses + k * words, words)) return true;
  }
  return false;
}

/// Lemma 3.4 against every witness, single-word path: true iff key ⊆ some
/// negative signature word.
inline bool CertainNegativeWord(uint64_t key,
                                const std::vector<uint64_t>& negs) {
  for (uint64_t neg : negs) {
    if ((key & ~neg) == 0) return true;
  }
  return false;
}

}  // namespace

InferenceState::InferenceState(const SignatureIndex& index)
    : index_(&index),
      states_(index.num_classes(), TupleState::kInformative),
      labeled_(index.num_classes(), false),
      pos_predicate_(index.omega().Full()),
      active_words_(JoinPredicate::WordsFor(index.omega().size())) {
  Reclassify();
}

util::Status InferenceState::ApplyLabel(ClassId cls, Label label) {
  JINFER_CHECK(cls < index_->num_classes(), "class %u out of range", cls);
  const JoinPredicate& sig = index_->cls(cls).signature;

  if (labeled_[cls]) {
    for (const auto& ex : sample_) {
      if (ex.cls == cls && ex.label != label) {
        return util::Status::InconsistentSample(
            "tuple with signature " + index_->omega().Format(sig) +
            " labeled both + and -");
      }
    }
    return util::Status::OK();  // Duplicate example: a sample is a set.
  }
  if (label == Label::kPositive && CertainNegative(sig)) {
    return util::Status::InconsistentSample(
        "positive label contradicts the sample: no consistent predicate "
        "selects the tuple with signature " +
        index_->omega().Format(sig));
  }
  if (label == Label::kNegative && CertainPositive(sig)) {
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

void InferenceState::ApplyLabelIncremental(ClassId cls, Label label,
                                           bool record) {
  const SignatureClass& labeled_class = index_->cls(cls);
  const JoinPredicate& sig_t = labeled_class.signature;

  if (record) {
    delta_frames_.push_back(DeltaFrame{delta_transitions_.size(), cls, label,
                                       has_positive_, pos_predicate_,
                                       informative_weight_});
  }
  sample_.push_back(ClassExample{cls, label});
  labeled_[cls] = true;

  const bool was_informative = states_[cls] == TupleState::kInformative;
  if (record) delta_transitions_.emplace_back(cls, states_[cls]);
  states_[cls] = TupleState::kLabeled;
  if (was_informative) informative_weight_ -= labeled_class.count;

  // Certainty is monotone under a consistent sample (T(S+) and the keys
  // only shrink), so the sweeps below visit informative classes only and
  // compact the survivors in place, preserving the sorted order. Forward
  // copies are safe: the write cursor never passes the read cursor.
  const size_t W = active_words_;
  const size_t n = informative_.size();
  size_t write = 0;
  if (W == 1) {
    // Single-word specialization (|Ω| ≤ 64): the compiler keeps the key,
    // signature and count words in registers with no inner word loop.
    const uint64_t sig0 = sig_t.word(0);
    if (label == Label::kPositive) {
      pos_predicate_ &= sig_t;
      has_positive_ = true;
      const uint64_t new_pos0 = pos_predicate_.word(0);
      for (size_t i = 0; i < n; ++i) {
        ClassId c = informative_[i];
        if (c == cls) continue;
        uint64_t key = inf_keys_[i] & sig0;
        TupleState next = TupleState::kInformative;
        if (key == new_pos0) {
          next = TupleState::kCertainPositive;  // Lemma 3.3.
        } else if (CertainNegativeWord(key, neg_words_)) {
          next = TupleState::kCertainNegative;  // Lemma 3.4, every witness.
        }
        if (next == TupleState::kInformative) {
          informative_[write] = c;
          inf_keys_[write] = key;
          inf_sigs_[write] = inf_sigs_[i];
          inf_counts_[write] = inf_counts_[i];
          ++write;
        } else {
          if (record) delta_transitions_.emplace_back(c, states_[c]);
          states_[c] = next;
          informative_weight_ -= inf_counts_[i];
        }
      }
    } else {
      negative_signatures_.push_back(sig_t);
      neg_words_.push_back(sig0);
      for (size_t i = 0; i < n; ++i) {
        ClassId c = informative_[i];
        if (c == cls) continue;
        if ((inf_keys_[i] & ~sig0) == 0) {  // Lemma 3.4, new witness only.
          if (record) delta_transitions_.emplace_back(c, states_[c]);
          states_[c] = TupleState::kCertainNegative;
          informative_weight_ -= inf_counts_[i];
        } else {
          informative_[write] = c;
          inf_keys_[write] = inf_keys_[i];
          inf_sigs_[write] = inf_sigs_[i];
          inf_counts_[write] = inf_counts_[i];
          ++write;
        }
      }
    }
  } else {
    uint64_t sigw[JoinPredicate::kWords];
    for (size_t w = 0; w < W; ++w) sigw[w] = sig_t.word(w);
    if (label == Label::kPositive) {
      pos_predicate_ &= sig_t;
      has_positive_ = true;
      uint64_t posw[JoinPredicate::kWords];
      for (size_t w = 0; w < W; ++w) posw[w] = pos_predicate_.word(w);
      const size_t num_negs = negative_signatures_.size();
      for (size_t i = 0; i < n; ++i) {
        ClassId c = informative_[i];
        if (c == cls) continue;
        uint64_t key2[JoinPredicate::kWords];
        And2Words(key2, &inf_keys_[i * W], sigw, W);
        TupleState next = TupleState::kInformative;
        if (EqualWords(key2, posw, W)) {
          next = TupleState::kCertainPositive;  // Lemma 3.3: T(S+) ⊆ T(c).
        } else if (AnyWitnessContains(key2, neg_words_.data(), num_negs, W)) {
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
      negative_signatures_.push_back(sig_t);
      neg_words_.insert(neg_words_.end(), sigw, sigw + W);
      for (size_t i = 0; i < n; ++i) {
        ClassId c = informative_[i];
        if (c == cls) continue;
        // T(S+) is unchanged; only the new witness T(t) can newly certify
        // a still-informative class negative (Lemma 3.4 — the old
        // witnesses already failed for it).
        if (IsSubsetWords(&inf_keys_[i * W], sigw, W)) {
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
  }
  informative_.resize(write);
  inf_keys_.resize(write * W);
  inf_sigs_.resize(write * W);
  inf_counts_.resize(write);
}

void InferenceState::UndoLabel() {
  JINFER_CHECK(!delta_frames_.empty(), "UndoLabel without a scoped label");
  const DeltaFrame frame = delta_frames_.back();
  delta_frames_.pop_back();

  JINFER_CHECK(!sample_.empty() && sample_.back().cls == frame.cls &&
                   sample_.back().label == frame.label,
               "delta stack out of sync with the sample");
  sample_.pop_back();
  labeled_[frame.cls] = false;
  const size_t W = active_words_;
  const bool undo_positive = frame.label == Label::kPositive;
  if (undo_positive) {
    pos_predicate_ = frame.old_pos;
    has_positive_ = frame.old_has_positive;
  } else {
    negative_signatures_.pop_back();
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
  uint64_t posw[JoinPredicate::kWords];
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
      And2Words(&inf_keys_[i * W], posw, &inf_sigs_[i * W], W);
    }
  }
}

void InferenceState::RebuildPackedInformative() {
  const size_t W = active_words_;
  const size_t n = informative_.size();
  inf_keys_.resize(n * W);
  inf_sigs_.resize(n * W);
  inf_counts_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const SignatureClass& sc = index_->cls(informative_[i]);
    for (size_t w = 0; w < W; ++w) {
      const uint64_t sig = sc.signature.word(w);
      inf_sigs_[i * W + w] = sig;
      inf_keys_[i * W + w] = pos_predicate_.word(w) & sig;
    }
    inf_counts_[i] = sc.count;
  }
  neg_words_.clear();
  for (const JoinPredicate& neg : negative_signatures_) {
    for (size_t w = 0; w < W; ++w) neg_words_.push_back(neg.word(w));
  }
}

void InferenceState::Reclassify() {
  informative_weight_ = 0;
  informative_.clear();
  for (ClassId c = 0; c < index_->num_classes(); ++c) {
    const SignatureClass& sc = index_->cls(c);
    TupleState st;
    if (labeled_[c]) {
      st = TupleState::kLabeled;
    } else if (CertainPositive(sc.signature)) {
      st = TupleState::kCertainPositive;
    } else if (CertainNegative(sc.signature)) {
      st = TupleState::kCertainNegative;
    } else {
      st = TupleState::kInformative;
      informative_.push_back(c);
      informative_weight_ += sc.count;
    }
    states_[c] = st;
  }
  RebuildPackedInformative();
}

uint64_t InferenceState::CountNewlyUninformative(ClassId cls,
                                                 Label label) const {
  JINFER_CHECK(IsInformative(cls), "class %u is not informative", cls);
  const SignatureClass& labeled_class = index_->cls(cls);
  // The remaining members of the labeled tuple's own class always become
  // uninformative; the labeled tuple itself is excluded (Figure 5).
  uint64_t newly = labeled_class.count - 1;
  const size_t W = active_words_;
  const size_t n = informative_.size();

  if (W == 1) {
    const uint64_t sig0 = labeled_class.signature.word(0);
    if (label == Label::kPositive) {
      const uint64_t pos2 = pos_predicate_.word(0) & sig0;
      for (size_t i = 0; i < n; ++i) {
        if (informative_[i] == cls) continue;
        uint64_t key = inf_keys_[i] & sig0;
        if (key == pos2 ||  // P′ ⊆ T(c), else Lemma 3.4.
            CertainNegativeWord(key, neg_words_)) {
          newly += inf_counts_[i];
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (informative_[i] == cls) continue;
        if ((inf_keys_[i] & ~sig0) == 0) newly += inf_counts_[i];
      }
    }
    return newly;
  }

  uint64_t sigw[JoinPredicate::kWords];
  for (size_t w = 0; w < W; ++w) sigw[w] = labeled_class.signature.word(w);
  if (label == Label::kPositive) {
    // T(S+) shrinks to P′ = T(S+) ∩ T(t): classes above P′ become certain+
    // (Lemma 3.3) and the Cert− test must be re-evaluated against P′
    // (Lemma 3.4), since shrinking T(S+) weakens its premise.
    uint64_t pos2[JoinPredicate::kWords];
    for (size_t w = 0; w < W; ++w) pos2[w] = pos_predicate_.word(w) & sigw[w];
    const size_t num_negs = negative_signatures_.size();
    for (size_t i = 0; i < n; ++i) {
      if (informative_[i] == cls) continue;
      uint64_t key2[JoinPredicate::kWords];
      And2Words(key2, &inf_keys_[i * W], sigw, W);
      if (EqualWords(key2, pos2, W) ||  // P′ ⊆ T(c).
          AnyWitnessContains(key2, neg_words_.data(), num_negs, W)) {
        newly += inf_counts_[i];
      }
    }
  } else {
    // T(S+) is unchanged; only the new negative witness T(t) can newly
    // certify classes negative (existing witnesses already failed for every
    // currently-informative class).
    for (size_t i = 0; i < n; ++i) {
      if (informative_[i] == cls) continue;
      if (IsSubsetWords(&inf_keys_[i * W], sigw, W)) {
        newly += inf_counts_[i];
      }
    }
  }
  return newly;
}

std::pair<uint64_t, uint64_t> InferenceState::CountNewlyUninformativeBoth(
    ClassId cls) const {
  JINFER_CHECK(IsInformative(cls), "class %u is not informative", cls);
  const SignatureClass& labeled_class = index_->cls(cls);
  uint64_t newly_pos = labeled_class.count - 1;
  uint64_t newly_neg = labeled_class.count - 1;
  const size_t W = active_words_;
  const size_t n = informative_.size();

  if (W == 1) {
    const uint64_t sig0 = labeled_class.signature.word(0);
    const uint64_t pos2 = pos_predicate_.word(0) & sig0;
    for (size_t i = 0; i < n; ++i) {
      if (informative_[i] == cls) continue;
      const uint64_t k = inf_keys_[i];
      const uint64_t cnt = inf_counts_[i];
      if ((k & ~sig0) == 0) newly_neg += cnt;  // k ⊆ T(t).
      const uint64_t key2 = k & sig0;
      if (key2 == pos2 || CertainNegativeWord(key2, neg_words_)) {
        newly_pos += cnt;
      }
    }
    return {newly_pos, newly_neg};
  }

  uint64_t sigw[JoinPredicate::kWords];
  uint64_t pos2[JoinPredicate::kWords];
  for (size_t w = 0; w < W; ++w) {
    sigw[w] = labeled_class.signature.word(w);
    pos2[w] = pos_predicate_.word(w) & sigw[w];
  }
  const size_t num_negs = negative_signatures_.size();
  for (size_t i = 0; i < n; ++i) {
    if (informative_[i] == cls) continue;
    const uint64_t cnt = inf_counts_[i];
    if (IsSubsetWords(&inf_keys_[i * W], sigw, W)) newly_neg += cnt;
    uint64_t key2[JoinPredicate::kWords];
    And2Words(key2, &inf_keys_[i * W], sigw, W);
    if (EqualWords(key2, pos2, W) ||
        AnyWitnessContains(key2, neg_words_.data(), num_negs, W)) {
      newly_pos += cnt;
    }
  }
  return {newly_pos, newly_neg};
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
  args.num_negs = negative_signatures_.size();
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
