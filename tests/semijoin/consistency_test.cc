#include "semijoin/consistency.h"

#include <gtest/gtest.h>

#include "testing/paper_fixtures.h"
#include "testing/semijoin_reference.h"
#include "util/rng.h"

namespace jinfer {
namespace semi {
namespace {

SemijoinInstance Example21Instance() {
  auto inst = SemijoinInstance::Build(testing::Example21R(),
                                      testing::Example21P());
  JINFER_CHECK(inst.ok(), "fixture");
  return std::move(inst).ValueOrDie();
}

TEST(SemijoinConsistencyTest, Section6SampleIsConsistent) {
  SemijoinInstance inst = Example21Instance();
  RowSample sample = {{0, core::Label::kPositive},
                      {1, core::Label::kPositive},
                      {2, core::Label::kNegative}};
  ConsistencyResult result = CheckConsistencySat(inst, sample);
  ASSERT_TRUE(result.consistent);
  EXPECT_TRUE(inst.ConsistentWith(result.witness, sample));
}

TEST(SemijoinConsistencyTest, EmptySampleIsConsistent) {
  SemijoinInstance inst = Example21Instance();
  EXPECT_TRUE(CheckConsistencySat(inst, {}).consistent);
}

TEST(SemijoinConsistencyTest, AllPositiveIsConsistentViaEmptyPredicate) {
  SemijoinInstance inst = Example21Instance();
  RowSample sample;
  for (size_t i = 0; i < inst.num_rows(); ++i) {
    sample.push_back({i, core::Label::kPositive});
  }
  ConsistencyResult result = CheckConsistencySat(inst, sample);
  ASSERT_TRUE(result.consistent);
}

TEST(SemijoinConsistencyTest, ConflictingLabelsOnOneRowInconsistent) {
  SemijoinInstance inst = Example21Instance();
  RowSample sample = {{0, core::Label::kPositive},
                      {0, core::Label::kNegative}};
  EXPECT_FALSE(CheckConsistencySat(inst, sample).consistent);
}

TEST(SemijoinConsistencyTest, IndistinguishableRowsWithOppositeLabels) {
  // Two identical R rows cannot be separated by any predicate.
  auto r = rel::Relation::Make("R", {"A"}, {{1}, {1}});
  auto p = rel::Relation::Make("P", {"B"}, {{1}});
  auto inst = SemijoinInstance::Build(*r, *p);
  ASSERT_TRUE(inst.ok());
  RowSample sample = {{0, core::Label::kPositive},
                      {1, core::Label::kNegative}};
  EXPECT_FALSE(CheckConsistencySat(*inst, sample).consistent);
  EXPECT_EQ(CheckConsistencyBruteForce(*inst, sample), std::nullopt);
}

TEST(SemijoinConsistencyTest, BruteForceFindsMostGeneralWitness) {
  SemijoinInstance inst = Example21Instance();
  RowSample sample = {{0, core::Label::kPositive},
                      {1, core::Label::kPositive},
                      {2, core::Label::kNegative}};
  auto witness = CheckConsistencyBruteForce(inst, sample);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(inst.ConsistentWith(*witness, sample));
  // Enumeration is by size: a singleton witness must exist ({(A1,B2)} per
  // §6), so the returned one has size ≤ 1 — and size 0 is inconsistent.
  EXPECT_EQ(witness->Count(), 1u);
}

// --- Property: SAT encoding ≡ brute force -------------------------------------

class SemijoinConsistencyPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemijoinConsistencyPropertyTest, SatMatchesBruteForce) {
  util::Rng rng(GetParam());
  // Small random instances: 2x2 attributes (|Ω| = 4), 6x5 rows.
  std::vector<rel::Row> r_rows, p_rows;
  for (int i = 0; i < 6; ++i) {
    r_rows.push_back({rng.NextInRange(0, 3), rng.NextInRange(0, 3)});
  }
  for (int i = 0; i < 5; ++i) {
    p_rows.push_back({rng.NextInRange(0, 3), rng.NextInRange(0, 3)});
  }
  auto r = rel::Relation::Make("R", {"A1", "A2"}, std::move(r_rows));
  auto p = rel::Relation::Make("P", {"B1", "B2"}, std::move(p_rows));
  auto inst = SemijoinInstance::Build(*r, *p);
  ASSERT_TRUE(inst.ok());

  // Try many random labelings, consistent and not.
  for (int trial = 0; trial < 20; ++trial) {
    RowSample sample;
    for (size_t row = 0; row < inst->num_rows(); ++row) {
      if (rng.NextBool(0.7)) {
        sample.push_back({row, rng.NextBool(0.5) ? core::Label::kPositive
                                                 : core::Label::kNegative});
      }
    }
    ConsistencyResult sat = CheckConsistencySat(*inst, sample);
    auto brute = CheckConsistencyBruteForce(*inst, sample);
    EXPECT_EQ(sat.consistent, brute.has_value()) << "trial " << trial;
    if (sat.consistent) {
      EXPECT_TRUE(inst->ConsistentWith(sat.witness, sample));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemijoinConsistencyPropertyTest,
                         ::testing::Range(uint64_t{300}, uint64_t{315}));

// --- Maximal specificity (extension) --------------------------------------------

TEST(MaximalSpecificityTest, OmegaSubsetIsMaximalWhenNothingExtends) {
  SemijoinInstance inst = Example21Instance();
  const core::Omega& omega = inst.omega();
  RowSample positives = {{1, core::Label::kPositive}};  // t2
  // T-signatures of t2's partners: the atoms present in some partner.
  // θ = {(A1,B1),(A2,B3)} selects t2 (via t2'); is it maximally specific?
  core::JoinPredicate theta = testing::Pred(omega, {{0, 0}, {1, 2}});
  EXPECT_TRUE(inst.ConsistentWith(theta, positives));
  EXPECT_TRUE(IsMaximallySpecificForPositives(inst, positives, theta));
}

TEST(MaximalSpecificityTest, EmptyPredicateIsNotMaximal) {
  SemijoinInstance inst = Example21Instance();
  RowSample positives = {{1, core::Label::kPositive}};
  EXPECT_FALSE(IsMaximallySpecificForPositives(inst, positives,
                                               core::JoinPredicate()));
}

TEST(MaximalSpecificityDeathTest, RequiresPositiveOnlySample) {
  SemijoinInstance inst = Example21Instance();
  RowSample mixed = {{0, core::Label::kNegative}};
  EXPECT_DEATH(
      IsMaximallySpecificForPositives(inst, mixed, core::JoinPredicate()),
      "positive-only");
}

}  // namespace
}  // namespace semi
}  // namespace jinfer
