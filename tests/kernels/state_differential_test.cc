// Differential harness for the packed word-kernel InferenceState: a naive
// model classifier evaluates Lemmas 3.3/3.4 from first principles on every
// query — no incremental sweeps, no packed arrays, no cached keys — and
// random label/undo sequences must keep the production state bit-identical
// to it on every observable, across the one-, two-, three- and four-word
// active-prefix regimes.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference_state.h"
#include "core/signature_index.h"
#include "testing/kernel_backends.h"
#include "testing/paper_fixtures.h"
#include "util/rng.h"
#include "util/simd/dispatch.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

// The naive model: the sample is the whole state, and every question is
// answered by re-deriving the lemmas over all classes. Undo restores a
// pushed snapshot, so no incremental code is shared with production.
class NaiveModel {
 public:
  explicit NaiveModel(const SignatureIndex& index)
      : index_(&index),
        pos_(index.omega().Full()),
        labeled_(index.num_classes(), false) {}

  void Apply(ClassId cls, Label label) {
    stack_.push_back(Snapshot{pos_, has_positive_, negs_.size(), cls});
    labeled_[cls] = true;
    const JoinPredicate& sig = index_->cls(cls).signature;
    if (label == Label::kPositive) {
      pos_ &= sig;
      has_positive_ = true;
    } else {
      negs_.push_back(sig);
    }
  }

  void Undo() {
    ASSERT_FALSE(stack_.empty());
    const Snapshot& s = stack_.back();
    pos_ = s.pos;
    has_positive_ = s.has_positive;
    negs_.resize(s.num_negs);
    labeled_[s.cls] = false;
    stack_.pop_back();
  }

  TupleState Classify(ClassId cls) const {
    if (labeled_[cls]) return TupleState::kLabeled;
    const JoinPredicate& sig = index_->cls(cls).signature;
    if (pos_.IsSubsetOf(sig)) return TupleState::kCertainPositive;  // 3.3
    JoinPredicate key = pos_ & sig;
    for (const JoinPredicate& neg : negs_) {
      if (key.IsSubsetOf(neg)) return TupleState::kCertainNegative;  // 3.4
    }
    return TupleState::kInformative;
  }

  std::vector<ClassId> Informative() const {
    std::vector<ClassId> out;
    for (ClassId c = 0; c < index_->num_classes(); ++c) {
      if (Classify(c) == TupleState::kInformative) out.push_back(c);
    }
    return out;
  }

  uint64_t Weight() const {
    uint64_t w = 0;
    for (ClassId c : Informative()) w += index_->cls(c).count;
    return w;
  }

  // u_label(cls): weight of classes informative now but not after the
  // label, minus the labeled tuple itself (Figure 5's "excluding t").
  uint64_t CountNewlyUninformative(ClassId cls, Label label) const {
    NaiveModel after = *this;
    after.Apply(cls, label);
    uint64_t newly = 0;
    for (ClassId c = 0; c < index_->num_classes(); ++c) {
      if (Classify(c) == TupleState::kInformative &&
          after.Classify(c) != TupleState::kInformative) {
        newly += index_->cls(c).count;
      }
    }
    return newly - 1;
  }

  const JoinPredicate& pos() const { return pos_; }
  bool has_positive() const { return has_positive_; }

 private:
  struct Snapshot {
    JoinPredicate pos;
    bool has_positive;
    size_t num_negs;
    ClassId cls;
  };

  const SignatureIndex* index_;
  JoinPredicate pos_;
  bool has_positive_ = false;
  std::vector<JoinPredicate> negs_;
  std::vector<bool> labeled_;
  std::vector<Snapshot> stack_;
};

void ExpectMatchesModel(const InferenceState& state, const NaiveModel& model) {
  const SignatureIndex& index = state.index();
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    ASSERT_EQ(state.state(c), model.Classify(c)) << "class " << c;
  }
  ASSERT_EQ(state.InformativeClasses(), model.Informative());
  ASSERT_EQ(state.InformativeTupleWeight(), model.Weight());
  ASSERT_EQ(state.InferredPredicate(), model.pos());
  ASSERT_EQ(state.HasPositiveExample(), model.has_positive());
  // Counting queries, both entry points, every informative class.
  const size_t n = state.NumInformativeClasses();
  std::vector<uint64_t> u_pos, u_neg;
  state.CountNewlyUninformativeAll(u_pos, u_neg);
  ASSERT_EQ(u_pos.size(), n);
  ASSERT_EQ(u_neg.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ClassId c = state.InformativeClassAt(i);
    uint64_t want_pos = model.CountNewlyUninformative(c, Label::kPositive);
    uint64_t want_neg = model.CountNewlyUninformative(c, Label::kNegative);
    ASSERT_EQ(state.CountNewlyUninformativeBoth(c),
              (std::pair<uint64_t, uint64_t>{want_pos, want_neg}))
        << "both class " << c;
    ASSERT_EQ(u_pos[i], want_pos) << "batch u+ class " << c;
    ASSERT_EQ(u_neg[i], want_neg) << "batch u- class " << c;
  }
}

// Drives production state and model through one random labeled/undone
// session. Interleaves scoped applies (with later undos) and permanent
// applies; after every mutation the full observable surface is compared.
void RunRandomSession(const SignatureIndex& index, uint64_t seed) {
  InferenceState state(index);
  NaiveModel model(index);
  ExpectMatchesModel(state, model);

  util::Rng rng(seed);
  size_t depth = 0;  // open scoped frames
  for (int step = 0; step < 60; ++step) {
    const size_t n = state.NumInformativeClasses();
    const bool can_undo = depth > 0;
    const bool can_apply = n > 0;
    if (!can_apply && !can_undo) break;
    bool undo = can_undo && (!can_apply || rng.NextBelow(3) == 0);
    if (undo) {
      state.UndoLabel();
      model.Undo();
      --depth;
    } else {
      ClassId cls = state.InformativeClassAt(rng.NextBelow(n));
      Label label =
          rng.NextBelow(2) == 0 ? Label::kPositive : Label::kNegative;
      state.ApplyLabelScoped(cls, label);
      model.Apply(cls, label);
      ++depth;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(state, model))
        << "seed " << seed << " step " << step;
  }
  // Unwind everything: the state must return exactly to its birth state.
  InferenceState fresh(index);
  while (depth > 0) {
    state.UndoLabel();
    model.Undo();
    --depth;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(state, model));
  ASSERT_EQ(state.InformativeClasses(), fresh.InformativeClasses());
  ASSERT_EQ(state.InferredPredicate(), fresh.InferredPredicate());
}

SignatureIndex BuildSynthetic(size_t nr, size_t np, size_t rows, int64_t vals,
                              uint64_t seed) {
  auto inst = workload::GenerateSynthetic(
      workload::SyntheticConfig{nr, np, rows, vals}, seed);
  JINFER_CHECK(inst.ok(), "generate failed");
  auto index = SignatureIndex::Build(inst->r, inst->p);
  JINFER_CHECK(index.ok(), "build failed");
  return std::move(*index);
}

TEST(StateDifferentialTest, PaperExampleSessions) {
  SignatureIndex index = testing::Example21Index();
  ASSERT_EQ(index.omega().size(), 6u);  // single-word regime
  for (uint64_t seed = 100; seed < 106; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(index, seed));
  }
}

TEST(StateDifferentialTest, SingleWordSessions) {
  // |Omega| = 3*3 = 9 -> active words = 1.
  SignatureIndex index = BuildSynthetic(3, 3, 24, 3, 7);
  for (uint64_t seed = 200; seed < 204; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(index, seed));
  }
}

TEST(StateDifferentialTest, TwoWordSessions) {
  // |Omega| = 9*8 = 72 -> active words = 2.
  SignatureIndex index = BuildSynthetic(9, 8, 16, 3, 11);
  for (uint64_t seed = 300; seed < 304; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(index, seed));
  }
}

TEST(StateDifferentialTest, ThreeWordSessions) {
  // |Omega| = 12*12 = 144 -> active words = 3.
  SignatureIndex index = BuildSynthetic(12, 12, 12, 3, 17);
  ASSERT_EQ(JoinPredicate::WordsFor(index.omega().size()), 3u);
  for (uint64_t seed = 600; seed < 604; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(index, seed));
  }
}

TEST(StateDifferentialTest, FourWordSessions) {
  // |Omega| = 14*14 = 196 -> active words = 4 (capacity regime).
  SignatureIndex index = BuildSynthetic(14, 14, 12, 3, 13);
  for (uint64_t seed = 400; seed < 404; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(index, seed));
  }
}

TEST(StateDifferentialTest, UncompressedSessions) {
  // compress=false: singleton classes, weight == class count everywhere.
  auto inst = workload::GenerateSynthetic(
      workload::SyntheticConfig{4, 3, 10, 3}, 19);
  ASSERT_TRUE(inst.ok());
  SignatureIndexOptions options;
  options.compress = false;
  auto index = SignatureIndex::Build(inst->r, inst->p, options);
  ASSERT_TRUE(index.ok());
  for (uint64_t seed = 500; seed < 503; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(*index, seed));
  }
}

// The whole differential surface, replayed under every supported SIMD
// kernel backend with identical seeds (the tentpole bit-identity claim,
// exercised through real sessions rather than raw kernels). The scalar
// pass is covered by the suites above; this loop adds the vector
// backends where the hardware has them, and shrinks to a no-op where it
// does not — the forced-scalar CI job stays green anywhere.
TEST(StateDifferentialTest, SessionsIdenticalUnderEveryBackend) {
  SignatureIndex two = BuildSynthetic(9, 8, 16, 3, 11);
  SignatureIndex three = BuildSynthetic(12, 12, 12, 3, 17);
  SignatureIndex four = BuildSynthetic(14, 14, 12, 3, 13);
  for (util::simd::KernelBackend backend :
       util::simd::SupportedKernelBackends()) {
    testing::ScopedKernelBackend forced(backend);
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(two, 300))
        << util::simd::KernelBackendName(backend);
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(three, 600))
        << util::simd::KernelBackendName(backend);
    ASSERT_NO_FATAL_FAILURE(RunRandomSession(four, 400))
        << util::simd::KernelBackendName(backend);
  }
}

// Scoped apply/undo must restore a state indistinguishable from a copy
// taken before the apply — compared against the model after both.
TEST(StateDifferentialTest, UndoMatchesSnapshotCopy) {
  SignatureIndex index = BuildSynthetic(9, 8, 16, 3, 11);
  InferenceState state(index);
  NaiveModel model(index);
  util::Rng rng(42);
  for (int round = 0; round < 10; ++round) {
    const size_t n = state.NumInformativeClasses();
    if (n == 0) break;
    InferenceState snapshot = state;  // value-semantics reference
    ClassId cls = state.InformativeClassAt(rng.NextBelow(n));
    Label label = rng.NextBelow(2) == 0 ? Label::kPositive : Label::kNegative;
    state.ApplyLabelScoped(cls, label);
    state.UndoLabel();
    ASSERT_EQ(state.InformativeClasses(), snapshot.InformativeClasses());
    ASSERT_EQ(state.InferredPredicate(), snapshot.InferredPredicate());
    ASSERT_EQ(state.InformativeTupleWeight(),
              snapshot.InformativeTupleWeight());
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(state, model));
    // Advance the session permanently and keep going.
    ASSERT_TRUE(state.ApplyLabel(cls, label).ok());
    model.Apply(cls, label);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(state, model));
  }
}

}  // namespace
}  // namespace core
}  // namespace jinfer
