#include "core/entropy.h"

#include <gtest/gtest.h>

#include "testing/paper_fixtures.h"

namespace jinfer {
namespace core {
namespace {

// --- Entropy pair basics ------------------------------------------------------

TEST(EntropyTest, OfCountsOrdersComponents) {
  EXPECT_EQ(Entropy::OfCounts(3, 1), (Entropy{1, 3}));
  EXPECT_EQ(Entropy::OfCounts(1, 3), (Entropy{1, 3}));
  EXPECT_EQ(Entropy::OfCounts(2, 2), (Entropy{2, 2}));
}

TEST(EntropyTest, ToString) {
  EXPECT_EQ((Entropy{1, 2}).ToString(), "(1,2)");
  EXPECT_EQ(Entropy::Infinite().ToString(), "(inf,inf)");
}

TEST(DominanceTest, PaperExamples) {
  // §4.4: (1,2) dominates (1,1) and (0,2), but not (2,2) nor (0,3).
  EXPECT_TRUE(Dominates({1, 2}, {1, 1}));
  EXPECT_TRUE(Dominates({1, 2}, {0, 2}));
  EXPECT_FALSE(Dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(Dominates({1, 2}, {0, 3}));
}

TEST(DominanceTest, ReflexiveAndInfinity) {
  EXPECT_TRUE(Dominates({1, 2}, {1, 2}));
  EXPECT_TRUE(Dominates(Entropy::Infinite(), {5, 9}));
  EXPECT_FALSE(Dominates({5, 9}, Entropy::Infinite()));
}

TEST(SkylineTest, RemovesDominatedEntries) {
  auto frontier = Skyline({{0, 2}, {0, 1}, {1, 2}, {1, 1}, {0, 11}});
  EXPECT_EQ(frontier, (std::vector<Entropy>{{0, 11}, {1, 2}}));
}

TEST(SkylineTest, DeduplicatesEqualPairs) {
  auto frontier = Skyline({{1, 2}, {1, 2}});
  EXPECT_EQ(frontier, (std::vector<Entropy>{{1, 2}}));
}

TEST(SkylineTest, SingleElement) {
  EXPECT_EQ(Skyline({{3, 4}}), (std::vector<Entropy>{{3, 4}}));
}

TEST(SkylineTest, ChainKeepsTop) {
  auto frontier = Skyline({{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(frontier, (std::vector<Entropy>{{2, 3}}));
}

TEST(SkylineMaxMinTest, PicksSkylineElementWithMaximalMin) {
  Entropy chosen = SkylineMaxMin({{0, 2}, {0, 11}, {1, 2}, {1, 1}});
  EXPECT_EQ(chosen, (Entropy{1, 2}));
}

TEST(SkylineMaxMinTest, SameMinPrefersLargerMax) {
  Entropy chosen = SkylineMaxMin({{1, 2}, {1, 4}, {0, 11}});
  EXPECT_EQ(chosen, (Entropy{1, 4}));
}

// --- Figure 5: one-step entropies under the empty sample ---------------------
//
// One documented correction: the paper prints u+ = 2 for (t2,t1'); by
// Lemma 3.3 the supersets of {(A1,B3)} among Figure 3's signatures are
// (t1,t1'), (t1,t3'), (t2,t3'), (t3,t2') — i.e. u+ = 4 (DESIGN.md §2).

TEST(EntropyFigure5Test, AllTwelveCounts) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  auto expected = testing::Figure5Counts();
  size_t k = 0;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t p = 0; p < 3; ++p, ++k) {
      ClassId cls = testing::ClassOf(index, r, p);
      const auto [u_pos, u_neg] = state.CountNewlyUninformativeBoth(cls);
      EXPECT_EQ(u_pos, expected[k].first)
          << "(t" << r + 1 << ",t" << p + 1 << "') u+";
      EXPECT_EQ(u_neg, expected[k].second)
          << "(t" << r + 1 << ",t" << p + 1 << "') u-";
    }
  }
}

TEST(EntropyFigure5Test, EntropyPairs) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  // Spot checks straight from Figure 5.
  EXPECT_EQ(EntropyOf(state, testing::ClassOf(index, 2, 0)),
            (Entropy{0, 11}));  // (t3,t1')
  EXPECT_EQ(EntropyOf(state, testing::ClassOf(index, 0, 2)),
            (Entropy{1, 2}));  // (t1,t3')
  EXPECT_EQ(EntropyOf(state, testing::ClassOf(index, 1, 2)),
            (Entropy{0, 4}));  // (t2,t3')
  // The corrected row: (t2,t1') is (1,4), not the paper's (1,2).
  EXPECT_EQ(EntropyOf(state, testing::ClassOf(index, 1, 0)),
            (Entropy{1, 4}));
}

TEST(EntropyFigure5Test, SkylineOfInitialEntropies) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  std::vector<Entropy> all;
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    all.push_back(EntropyOf(state, c));
  }
  // With the corrected (1,4), the skyline is {(0,11),(1,4)} (the paper,
  // using (1,2) for (t2,t1'), reports {(1,2),(0,11)}).
  EXPECT_EQ(Skyline(all), (std::vector<Entropy>{{0, 11}, {1, 4}}));
}

// --- §4.4 worked example: entropy² -------------------------------------------

class Entropy2Section44Test : public ::testing::Test {
 protected:
  Entropy2Section44Test()
      : index_(testing::Example21Index()), state_(index_) {
    // S = {((t1,t3'),+), ((t3,t1'),−)}.
    JINFER_CHECK(state_
                     .ApplyLabel(testing::ClassOf(index_, 0, 2),
                                 Label::kPositive)
                     .ok(),
                 "fixture");
    JINFER_CHECK(state_
                     .ApplyLabel(testing::ClassOf(index_, 2, 0),
                                 Label::kNegative)
                     .ok(),
                 "fixture");
  }

  SignatureIndex index_;
  InferenceState state_;
};

TEST_F(Entropy2Section44Test, FiveInformativeTuplesRemain) {
  // §4.4 lists exactly (t1,t1'), (t2,t1'), (t3,t2'), (t4,t1'), (t4,t2').
  EXPECT_EQ(state_.NumInformativeClasses(), 5u);
  for (auto [r, p] : std::vector<std::pair<size_t, size_t>>{
           {0, 0}, {1, 0}, {2, 1}, {3, 0}, {3, 1}}) {
    EXPECT_TRUE(state_.IsInformative(testing::ClassOf(index_, r, p)))
        << "(t" << r + 1 << ",t" << p + 1 << "')";
  }
}

TEST_F(Entropy2Section44Test, UninformativeSetMatchesSection44) {
  // Uninf(S) = {(t2,t3')+, (t1,t2')−, (t2,t2')−, (t3,t3')−, (t4,t3')−}.
  EXPECT_EQ(state_.state(testing::ClassOf(index_, 1, 2)),
            TupleState::kCertainPositive);
  for (auto [r, p] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {1, 1}, {2, 2}, {3, 2}}) {
    EXPECT_EQ(state_.state(testing::ClassOf(index_, r, p)),
              TupleState::kCertainNegative)
        << "(t" << r + 1 << ",t" << p + 1 << "')";
  }
}

TEST_F(Entropy2Section44Test, Entropy2OfT2T1PrimeIsThreeThree) {
  // The paper computes entropy²_S((t2,t1')) = (3,3): labeling it positive
  // ends the session ((∞,∞)); labeling it negative leaves (t4,t1'),
  // (t4,t2') informative, each guaranteeing 3 newly-uninformative tuples.
  Entropy e = EntropyKOf(state_, testing::ClassOf(index_, 1, 0), 2);
  EXPECT_EQ(e, (Entropy{3, 3}));
}

TEST_F(Entropy2Section44Test, PositiveBranchEndsSession) {
  InferenceState after =
      state_.WithLabel(testing::ClassOf(index_, 1, 0), Label::kPositive);
  EXPECT_EQ(after.NumInformativeClasses(), 0u);
}

TEST_F(Entropy2Section44Test, NegativeBranchLeavesTwoInformative) {
  InferenceState after =
      state_.WithLabel(testing::ClassOf(index_, 1, 0), Label::kNegative);
  EXPECT_EQ(after.NumInformativeClasses(), 2u);
  EXPECT_TRUE(after.IsInformative(testing::ClassOf(index_, 3, 0)));
  EXPECT_TRUE(after.IsInformative(testing::ClassOf(index_, 3, 1)));
}

// --- entropy^k sanity ----------------------------------------------------------

TEST(EntropyKTest, DepthOneMatchesEntropyOf) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  for (ClassId c : state.InformativeClasses()) {
    EXPECT_EQ(EntropyKOf(state, c, 1), EntropyOf(state, c));
  }
}

TEST(EntropyKTest, LastInformativeTupleHasInfiniteEntropy2) {
  // When labeling t either way ends the session, entropy² is (∞,∞).
  // R = {1, 2}, P = {1}: the Ω-signature tuple (1,1) is born certain-
  // positive, leaving only the {}-signature tuple informative; labeling it
  // either way satisfies Γ.
  auto r = rel::Relation::Make("R", {"A"}, {{1}, {2}});
  auto p = rel::Relation::Make("P", {"B"}, {{1}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  ASSERT_EQ(state.NumInformativeClasses(), 1u);
  ClassId only = state.InformativeClasses().front();
  EXPECT_EQ(EntropyKOf(state, only, 2), Entropy::Infinite());
}

TEST(EntropyKTest, Depth3RunsOnExample21) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ClassId c = testing::ClassOf(index, 1, 0);
  Entropy e3 = EntropyKOf(state, c, 3);
  // Depth-3 guarantees at least as much as depth-2 guarantees at least as
  // much as depth-1 (more forced labels can only add information).
  Entropy e2 = EntropyKOf(state, c, 2);
  Entropy e1 = EntropyKOf(state, c, 1);
  EXPECT_GE(e3.min_u, e2.min_u);
  EXPECT_GE(e2.min_u, e1.min_u);
}

TEST(EntropyKDeathTest, RejectsNonPositiveDepth) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  EXPECT_DEATH(EntropyKOf(state, 0, 0), "depth");
}

}  // namespace
}  // namespace core
}  // namespace jinfer
