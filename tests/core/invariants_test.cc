// Cross-cutting invariants of the inference state machine, checked along
// full randomized labeling trajectories (complements the per-lemma
// property suites in certain_property_test.cc).

#include <gtest/gtest.h>

#include "core/entropy.h"
#include "core/inference_state.h"
#include "testing/paper_fixtures.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

class TrajectoryInvariantsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static SignatureIndex MakeIndex(uint64_t seed) {
    auto inst = workload::GenerateSynthetic({3, 3, 20, 8}, seed);
    JINFER_CHECK(inst.ok(), "generation");
    auto index = SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(index.ok(), "index");
    return std::move(index).ValueOrDie();
  }
};

TEST_P(TrajectoryInvariantsTest, FullTrajectoryInvariants) {
  uint64_t seed = GetParam();
  SignatureIndex index = MakeIndex(seed);
  util::Rng rng(seed ^ 0xaa);

  // Random hidden goal; labels always follow it (consistent trajectory).
  JoinPredicate goal;
  for (size_t b = 0; b < index.omega().size(); ++b) {
    if (rng.NextBool(0.3)) goal.Set(b);
  }

  InferenceState state(index);
  uint64_t prev_weight = state.InformativeTupleWeight();
  JoinPredicate prev_predicate = state.InferredPredicate();

  while (state.NumInformativeClasses() > 0) {
    auto informative = state.InformativeClasses();

    // I1: InformativeTupleWeight equals the sum of informative class
    // weights.
    uint64_t recomputed = 0;
    for (ClassId c : informative) recomputed += index.cls(c).count;
    ASSERT_EQ(state.InformativeTupleWeight(), recomputed);

    // I2: the goal remains consistent: it never selects a certain-negative
    // class and always selects a certain-positive class.
    for (ClassId c = 0; c < index.num_classes(); ++c) {
      if (state.state(c) == TupleState::kCertainPositive) {
        ASSERT_TRUE(index.Selects(goal, c));
      }
      if (state.state(c) == TupleState::kCertainNegative) {
        ASSERT_FALSE(index.Selects(goal, c));
      }
    }

    // I3: the inferred predicate only ever becomes more specific.
    ASSERT_TRUE(prev_predicate.IsSubsetOf(state.InferredPredicate()) ||
                state.InferredPredicate().IsSubsetOf(prev_predicate));

    // I4: u± counts match the weight delta of a simulated label.
    ClassId pick = informative[rng.NextBelow(informative.size())];
    const auto [u_pos, u_neg] = state.CountNewlyUninformativeBoth(pick);
    for (Label label : {Label::kPositive, Label::kNegative}) {
      uint64_t u = label == Label::kPositive ? u_pos : u_neg;
      InferenceState sim = state.WithLabel(pick, label);
      ASSERT_EQ(u, state.InformativeTupleWeight() -
                       sim.InformativeTupleWeight() - 1);
    }

    // Advance with the goal's label.
    Label label =
        index.Selects(goal, pick) ? Label::kPositive : Label::kNegative;
    prev_predicate = state.InferredPredicate();
    ASSERT_TRUE(state.ApplyLabel(pick, label).ok());

    // I5: informative weight strictly decreases per interaction.
    ASSERT_LT(state.InformativeTupleWeight(), prev_weight);
    prev_weight = state.InformativeTupleWeight();
  }

  // At halt: instance-equivalence with the goal (the §3.3 contract).
  EXPECT_TRUE(index.EquivalentOnInstance(state.InferredPredicate(), goal));
}

TEST_P(TrajectoryInvariantsTest, EntropyBoundsAndSkylineMembership) {
  uint64_t seed = GetParam();
  SignatureIndex index = MakeIndex(seed);
  InferenceState state(index);

  std::vector<Entropy> all;
  uint64_t weight = state.InformativeTupleWeight();
  for (ClassId c : state.InformativeClasses()) {
    Entropy e = EntropyOf(state, c);
    // u± can never exceed the informative tuples other than t itself.
    ASSERT_LE(e.max_u, weight - 1);
    ASSERT_LE(e.min_u, e.max_u);
    all.push_back(e);
  }
  // Every entropy is dominated by (or member of) the skyline.
  auto frontier = Skyline(all);
  for (const Entropy& e : all) {
    bool covered = false;
    for (const Entropy& f : frontier) {
      if (Dominates(f, e)) {
        covered = true;
        break;
      }
    }
    ASSERT_TRUE(covered) << e.ToString();
  }
  // And no skyline member dominates another.
  for (const Entropy& f : frontier) {
    for (const Entropy& g : frontier) {
      if (!(f == g)) {
        ASSERT_FALSE(Dominates(f, g) && Dominates(g, f));
      }
    }
  }
}

TEST_P(TrajectoryInvariantsTest, LabelingOrderDoesNotMatter) {
  // The state is a function of the sample *set*: applying the same labels
  // in two different orders yields identical classifications.
  uint64_t seed = GetParam();
  SignatureIndex index = MakeIndex(seed);
  util::Rng rng(seed ^ 0x77);
  JoinPredicate goal;
  goal.Set(rng.NextBelow(index.omega().size()));

  // Gather a trajectory's labels.
  InferenceState forward(index);
  std::vector<ClassExample> labels;
  while (forward.NumInformativeClasses() > 0 && labels.size() < 6) {
    auto informative = forward.InformativeClasses();
    ClassId pick = informative[rng.NextBelow(informative.size())];
    Label label =
        index.Selects(goal, pick) ? Label::kPositive : Label::kNegative;
    ASSERT_TRUE(forward.ApplyLabel(pick, label).ok());
    labels.push_back({pick, label});
  }

  // Replay in reverse order; certainty can make a replayed label merely
  // uninformative, never inconsistent.
  InferenceState backward(index);
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    ASSERT_TRUE(backward.ApplyLabel(it->cls, it->label).ok());
  }
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    // Labeled-vs-certain may differ between orders; informativeness and
    // the inferred predicate may not.
    ASSERT_EQ(forward.IsInformative(c), backward.IsInformative(c));
  }
  ASSERT_EQ(forward.InferredPredicate(), backward.InferredPredicate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrajectoryInvariantsTest,
                         ::testing::Range(uint64_t{2000}, uint64_t{2012}));

}  // namespace
}  // namespace core
}  // namespace jinfer
