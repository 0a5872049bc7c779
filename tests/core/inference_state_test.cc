#include "core/inference_state.h"

#include <gtest/gtest.h>

#include "testing/paper_fixtures.h"

namespace jinfer {
namespace core {
namespace {

TEST(InferenceStateTest, FreshStateIsAllInformative) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  EXPECT_EQ(state.NumInformativeClasses(), 12u);
  EXPECT_EQ(state.InformativeTupleWeight(), 12u);
  EXPECT_FALSE(state.HasPositiveExample());
  EXPECT_EQ(state.InferredPredicate(), index.omega().Full());
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    EXPECT_TRUE(state.IsInformative(c));
  }
}

TEST(InferenceStateTest, Section34UninformativeExamples) {
  // §3.4: with S+ = {(t2,t2')} and S− = {(t1,t3')}, the examples
  // ((t4,t1'),+) and ((t2,t1'),−) are uninformative.
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 1, 1), Label::kPositive).ok());
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kNegative).ok());

  EXPECT_EQ(state.state(testing::ClassOf(index, 3, 0)),
            TupleState::kCertainPositive);
  EXPECT_EQ(state.state(testing::ClassOf(index, 1, 0)),
            TupleState::kCertainNegative);
}

TEST(InferenceStateTest, PositiveLabelShrinksPredicate) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ClassId c = testing::ClassOf(index, 1, 1);  // {(A1,B1),(A2,B3)}
  ASSERT_TRUE(state.ApplyLabel(c, Label::kPositive).ok());
  EXPECT_EQ(state.InferredPredicate(), index.cls(c).signature);
  EXPECT_TRUE(state.HasPositiveExample());

  ClassId c2 = testing::ClassOf(index, 3, 0);  // {(A1,B1),(A1,B2),(A2,B3)}
  // c2 is now certain-positive, but labeling it positive is legal (it is
  // simply uninformative).
  ASSERT_TRUE(state.ApplyLabel(c2, Label::kPositive).ok());
  EXPECT_EQ(state.InferredPredicate(),
            testing::Pred(index.omega(), {{0, 0}, {1, 2}}));
}

TEST(InferenceStateTest, LabeledClassesAreNotInformative) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(state.ApplyLabel(0, Label::kNegative).ok());
  EXPECT_EQ(state.state(0), TupleState::kLabeled);
  EXPECT_FALSE(state.IsInformative(0));
  auto informative = state.InformativeClasses();
  EXPECT_EQ(std::find(informative.begin(), informative.end(), 0),
            informative.end());
}

TEST(InferenceStateTest, DuplicateSameLabelIsNoOp) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(state.ApplyLabel(0, Label::kNegative).ok());
  size_t before = state.sample().size();
  ASSERT_TRUE(state.ApplyLabel(0, Label::kNegative).ok());
  EXPECT_EQ(state.sample().size(), before);
}

TEST(InferenceStateTest, ContradictoryRelabelFails) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(state.ApplyLabel(0, Label::kNegative).ok());
  util::Status st = state.ApplyLabel(0, Label::kPositive);
  EXPECT_TRUE(st.IsInconsistentSample());
}

TEST(InferenceStateTest, LabelContradictingCertaintyFails) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  // Positive (t2,t2') and negative (t1,t3') make (t4,t1') certain-positive
  // and (t2,t1') certain-negative (§3.4). Contradicting labels must fail
  // and leave the state untouched.
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 1, 1), Label::kPositive).ok());
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kNegative).ok());
  size_t interactions = state.sample().size();

  EXPECT_TRUE(state.ApplyLabel(testing::ClassOf(index, 3, 0),
                               Label::kNegative)
                  .IsInconsistentSample());
  EXPECT_TRUE(state.ApplyLabel(testing::ClassOf(index, 1, 0),
                               Label::kPositive)
                  .IsInconsistentSample());
  EXPECT_EQ(state.sample().size(), interactions);

  // The non-contradicting labels are still accepted.
  EXPECT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 3, 0), Label::kPositive).ok());
}

TEST(InferenceStateTest, Section42LatticePruningPositive) {
  // §4.2: labeling (t1,t3') = {(A1,B2),(A1,B3)} positive renders (t2,t3')
  // uninformative.
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kPositive).ok());
  EXPECT_EQ(state.state(testing::ClassOf(index, 1, 2)),
            TupleState::kCertainPositive);
}

TEST(InferenceStateTest, Section42LatticePruningNegative) {
  // §4.2: labeling (t1,t3') negative renders (t2,t1') = {(A1,B3)} and
  // (t3,t1') = {} uninformative.
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kNegative).ok());
  EXPECT_EQ(state.state(testing::ClassOf(index, 1, 0)),
            TupleState::kCertainNegative);
  EXPECT_EQ(state.state(testing::ClassOf(index, 2, 0)),
            TupleState::kCertainNegative);
}

TEST(InferenceStateTest, CountNewlyUninformativeMatchesSimulation) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kPositive).ok());
  for (ClassId c : state.InformativeClasses()) {
    const auto [u_pos, u_neg] = state.CountNewlyUninformativeBoth(c);
    for (Label label : {Label::kPositive, Label::kNegative}) {
      uint64_t direct = label == Label::kPositive ? u_pos : u_neg;
      InferenceState sim = state.WithLabel(c, label);
      uint64_t via_weights =
          state.InformativeTupleWeight() - sim.InformativeTupleWeight() - 1;
      EXPECT_EQ(direct, via_weights)
          << "class " << c << " label "
          << (label == Label::kPositive ? "+" : "-");
    }
  }
}

TEST(InferenceStateTest, WithLabelDoesNotMutateOriginal) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  size_t informative_before = state.NumInformativeClasses();
  InferenceState copy = state.WithLabel(0, Label::kNegative);
  EXPECT_EQ(state.NumInformativeClasses(), informative_before);
  EXPECT_LT(copy.NumInformativeClasses(), informative_before);
}

TEST(InferenceStateTest, HaltStateAfterFullLabeling) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  // Label everything according to goal {(A1,B3)}.
  JoinPredicate goal = testing::Pred(index.omega(), {{0, 2}});
  while (state.NumInformativeClasses() > 0) {
    ClassId c = state.InformativeClasses().front();
    Label label = index.Selects(goal, c) ? Label::kPositive : Label::kNegative;
    ASSERT_TRUE(state.ApplyLabel(c, label).ok());
  }
  EXPECT_TRUE(index.EquivalentOnInstance(state.InferredPredicate(), goal));
}

TEST(InferenceStateTest, TupleMatchingEverywhereIsBornCertainPositive) {
  // A tuple with T(t) = Ω is selected by every predicate, so it is
  // certain-positive before any label is given.
  auto r = rel::Relation::Make("R", {"A"}, {{1}});
  auto p = rel::Relation::Make("P", {"B"}, {{1}, {2}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  auto omega_cls = index->ClassOfSignature(index->omega().Full());
  ASSERT_TRUE(omega_cls.has_value());
  EXPECT_EQ(state.state(*omega_cls), TupleState::kCertainPositive);
  EXPECT_EQ(state.NumInformativeClasses(), 1u);  // Only the {} class.
}

TEST(InferenceStateTest, WeightsHonorClassMultiplicity) {
  // Two attributes on P so no signature equals Ω (an Ω-signature class
  // would be born certain-positive and drop out of the informative pool).
  auto r = rel::Relation::Make("R", {"A"}, {{1}, {1}, {2}});
  auto p = rel::Relation::Make("P", {"B1", "B2"}, {{1, 9}, {3, 9}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  // Classes: {(A,B1)} weight 2, {} weight 4.
  ASSERT_EQ(index->num_classes(), 2u);
  InferenceState state(*index);
  EXPECT_EQ(state.InformativeTupleWeight(), 6u);
  auto cls = index->ClassOfSignature(
      index->omega().PredicateFromPairs({{0, 0}}));
  ASSERT_TRUE(cls.has_value());
  // Labeling one member of the weight-2 class positive: its sibling tuple
  // becomes uninformative (count 1); the empty class stays informative
  // (T(S+) = {(A,B1)} ⊄ {} and there is no negative witness).
  EXPECT_EQ(state.CountNewlyUninformativeBoth(*cls).first, 1u);
}

}  // namespace
}  // namespace core
}  // namespace jinfer
