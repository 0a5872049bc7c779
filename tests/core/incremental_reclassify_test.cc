// Property tests for the incremental classification and the
// ApplyLabelScoped/UndoLabel delta stack:
//
//  (a) after any random ApplyLabel sequence, every class's TupleState
//      matches the paper's definitional (from-scratch) classification of
//      Lemmas 3.3/3.4;
//  (b) a random apply/undo walk leaves the state indistinguishable from a
//      fresh state replaying the surviving labels;
//  (c) the in-place EntropyKOf equals a reference implementation that
//      copies the state per simulation node (the seed algorithm).
//
// Runs on both a single-word Ω (3×3 attributes) and a multi-word Ω (9×10),
// which exercise the packed-array and prefix-bitset paths respectively.

#include <gtest/gtest.h>

#include <vector>

#include "core/entropy.h"
#include "core/inference_state.h"
#include "core/signature_index.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

/// Definitional classification straight from Lemmas 3.3/3.4, computed with
/// no incremental machinery at all.
TupleState ReferenceState(const SignatureIndex& index, const Sample& sample,
                          ClassId cls) {
  for (const auto& ex : sample) {
    if (ex.cls == cls) return TupleState::kLabeled;
  }
  JoinPredicate pos = index.omega().Full();
  std::vector<JoinPredicate> negs;
  for (const auto& ex : sample) {
    if (ex.label == Label::kPositive) {
      pos &= index.cls(ex.cls).signature;
    } else {
      negs.push_back(index.cls(ex.cls).signature);
    }
  }
  const JoinPredicate& sig = index.cls(cls).signature;
  if (pos.IsSubsetOf(sig)) return TupleState::kCertainPositive;
  JoinPredicate key = pos & sig;
  for (const JoinPredicate& neg : negs) {
    if (key.IsSubsetOf(neg)) return TupleState::kCertainNegative;
  }
  return TupleState::kInformative;
}

void ExpectMatchesReference(const SignatureIndex& index,
                            const InferenceState& state, const char* what) {
  uint64_t expected_weight = 0;
  size_t expected_informative = 0;
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    TupleState expected = ReferenceState(index, state.sample(), c);
    ASSERT_EQ(state.state(c), expected) << what << " class " << c;
    if (expected == TupleState::kInformative) {
      ++expected_informative;
      expected_weight += index.cls(c).count;
    }
  }
  EXPECT_EQ(state.NumInformativeClasses(), expected_informative) << what;
  EXPECT_EQ(state.InformativeTupleWeight(), expected_weight) << what;
  // The informative list is sorted, duplicate-free and consistent.
  auto informative = state.InformativeClasses();
  ASSERT_EQ(informative.size(), expected_informative) << what;
  for (size_t i = 0; i < informative.size(); ++i) {
    if (i > 0) EXPECT_LT(informative[i - 1], informative[i]) << what;
    EXPECT_TRUE(state.IsInformative(informative[i])) << what;
    EXPECT_EQ(state.InformativeClassAt(i), informative[i]) << what;
  }
}

/// Reference entropy^k: the seed implementation — copies the state at every
/// inner node and materializes the child entropies for SkylineMaxMin.
Entropy ReferenceEntropyRec(uint64_t root_weight, const InferenceState& state,
                            ClassId cls, int remaining, uint64_t depth) {
  if (remaining == 1) {
    uint64_t removed = root_weight - state.InformativeTupleWeight();
    const auto [u_pos, u_neg] = state.CountNewlyUninformativeBoth(cls);
    uint64_t up = removed + u_pos - depth;
    uint64_t un = removed + u_neg - depth;
    return Entropy::OfCounts(up, un);
  }
  Entropy per_label[2];
  for (Label label : {Label::kPositive, Label::kNegative}) {
    InferenceState next = state.WithLabel(cls, label);
    std::vector<ClassId> informative = next.InformativeClasses();
    Entropy e;
    if (informative.empty()) {
      e = Entropy::Infinite();
    } else {
      std::vector<Entropy> inner;
      for (ClassId c2 : informative) {
        inner.push_back(
            ReferenceEntropyRec(root_weight, next, c2, remaining - 1,
                                depth + 1));
      }
      e = SkylineMaxMin(inner);
    }
    per_label[label == Label::kPositive ? 0 : 1] = e;
  }
  const Entropy& ep = per_label[0];
  const Entropy& en = per_label[1];
  if (ep.min_u != en.min_u) return ep.min_u < en.min_u ? ep : en;
  return ep.max_u <= en.max_u ? ep : en;
}

Entropy ReferenceEntropyK(const InferenceState& state, ClassId cls, int k) {
  return ReferenceEntropyRec(state.InformativeTupleWeight(), state, cls, k, 0);
}

struct CaseConfig {
  workload::SyntheticConfig config;
  uint64_t seed;
};

class IncrementalReclassifyTest
    : public ::testing::TestWithParam<CaseConfig> {};

TEST_P(IncrementalReclassifyTest, RandomLabelSequenceMatchesDefinitions) {
  auto inst = workload::GenerateSynthetic(GetParam().config, GetParam().seed);
  ASSERT_TRUE(inst.ok());
  auto index = SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  ExpectMatchesReference(*index, state, "fresh");

  util::Rng rng(GetParam().seed * 31 + 7);
  while (state.NumInformativeClasses() > 0) {
    auto informative = state.InformativeClasses();
    ClassId c = informative[rng.NextBelow(informative.size())];
    Label label = rng.NextBool(0.35) ? Label::kPositive : Label::kNegative;
    ASSERT_TRUE(state.ApplyLabel(c, label).ok());
    ExpectMatchesReference(*index, state, "after label");
  }
}

TEST_P(IncrementalReclassifyTest, ApplyUndoWalkMatchesReplayFromScratch) {
  auto inst = workload::GenerateSynthetic(GetParam().config, GetParam().seed);
  ASSERT_TRUE(inst.ok());
  auto index = SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  util::Rng rng(GetParam().seed * 131 + 3);

  std::vector<std::pair<ClassId, Label>> applied;
  for (int step = 0; step < 120; ++step) {
    bool can_apply = state.NumInformativeClasses() > 0;
    bool do_apply = can_apply && (applied.empty() || rng.NextBool(0.6));
    if (do_apply) {
      auto informative = state.InformativeClasses();
      ClassId c = informative[rng.NextBelow(informative.size())];
      Label label = rng.NextBool(0.3) ? Label::kPositive : Label::kNegative;
      state.ApplyLabelScoped(c, label);
      applied.emplace_back(c, label);
    } else if (!applied.empty()) {
      state.UndoLabel();
      applied.pop_back();
    } else {
      continue;
    }

    // The walked state must be indistinguishable from a fresh replay.
    InferenceState replay(*index);
    for (const auto& [c, label] : applied) {
      ASSERT_TRUE(replay.ApplyLabel(c, label).ok());
    }
    ASSERT_EQ(state.sample().size(), applied.size());
    EXPECT_EQ(state.InferredPredicate(), replay.InferredPredicate());
    EXPECT_EQ(state.HasPositiveExample(), replay.HasPositiveExample());
    EXPECT_EQ(state.InformativeTupleWeight(), replay.InformativeTupleWeight());
    EXPECT_EQ(state.InformativeClasses(), replay.InformativeClasses());
    for (ClassId c = 0; c < index->num_classes(); ++c) {
      ASSERT_EQ(state.state(c), replay.state(c)) << "class " << c;
    }
    ExpectMatchesReference(*index, state, "walk");
  }
}

TEST_P(IncrementalReclassifyTest, InPlaceEntropyMatchesReference) {
  auto inst = workload::GenerateSynthetic(GetParam().config, GetParam().seed);
  ASSERT_TRUE(inst.ok());
  auto index = SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  util::Rng rng(GetParam().seed * 17 + 1);

  // Compare at the fresh state and after each of a few random labels.
  for (int round = 0; round < 4 && state.NumInformativeClasses() > 1;
       ++round) {
    for (ClassId c : state.InformativeClasses()) {
      for (int k : {1, 2}) {
        Entropy expected = ReferenceEntropyK(state, c, k);
        Entropy in_place = EntropyKOf(state, c, k);
        EXPECT_EQ(in_place, expected)
            << "round " << round << " class " << c << " k=" << k;
      }
    }
    auto informative = state.InformativeClasses();
    ClassId c = informative[rng.NextBelow(informative.size())];
    Label label = rng.NextBool(0.3) ? Label::kPositive : Label::kNegative;
    ASSERT_TRUE(state.ApplyLabel(c, label).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, IncrementalReclassifyTest,
    ::testing::Values(CaseConfig{{3, 3, 25, 5}, 11},   // 9-bit Ω, packed
                      CaseConfig{{3, 3, 40, 8}, 22},   // 9-bit Ω, packed
                      CaseConfig{{4, 4, 30, 6}, 33},   // 16-bit Ω, packed
                      CaseConfig{{9, 10, 15, 4}, 44},  // 90-bit Ω, prefix
                      CaseConfig{{9, 10, 20, 6}, 55}));  // 90-bit Ω, prefix

}  // namespace
}  // namespace core
}  // namespace jinfer
