#include "core/signature_index.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "testing/paper_fixtures.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

// --- Figure 3: every T(t) of Example 2.1 ------------------------------------

TEST(SignatureIndexTest, Figure3SignaturesExact) {
  SignatureIndex index = testing::Example21Index();
  auto expected = testing::Figure3Signatures();
  size_t k = 0;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t p = 0; p < 3; ++p, ++k) {
      JoinPredicate want = testing::Pred(index.omega(), expected[k]);
      EXPECT_EQ(index.SignatureOfPair(r, p), want)
          << "tuple (t" << r + 1 << ",t" << p + 1 << "')";
    }
  }
}

TEST(SignatureIndexTest, Example21HasTwelveSingletonClasses) {
  SignatureIndex index = testing::Example21Index();
  EXPECT_EQ(index.num_classes(), 12u);
  EXPECT_EQ(index.num_tuples(), 12u);
  for (const auto& c : index.classes()) EXPECT_EQ(c.count, 1u);
}

TEST(SignatureIndexTest, ClassOfSignatureFindsAll) {
  SignatureIndex index = testing::Example21Index();
  for (const auto& sig : testing::Figure3Signatures()) {
    JoinPredicate pred = testing::Pred(index.omega(), sig);
    EXPECT_TRUE(index.ClassOfSignature(pred).has_value());
  }
  EXPECT_FALSE(index.ClassOfSignature(index.omega().Full()).has_value());
}

TEST(SignatureIndexTest, RepresentativesCarryTheirSignature) {
  SignatureIndex index = testing::Example21Index();
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    const SignatureClass& sc = index.cls(c);
    EXPECT_EQ(index.SignatureOfPair(sc.rep_r, sc.rep_p), sc.signature);
  }
}

// --- Selection and instance equivalence -------------------------------------

TEST(SignatureIndexTest, SelectsMatchesSubsetSemantics) {
  SignatureIndex index = testing::Example21Index();
  const Omega& omega = index.omega();
  // θ1 = {(A1,B1),(A2,B3)} selects exactly (t2,t2') and (t4,t1').
  JoinPredicate theta1 = testing::Pred(omega, {{0, 0}, {1, 2}});
  EXPECT_EQ(index.CountSelected(theta1), 2u);
  EXPECT_TRUE(index.Selects(theta1, testing::ClassOf(index, 1, 1)));
  EXPECT_TRUE(index.Selects(theta1, testing::ClassOf(index, 3, 0)));
  EXPECT_FALSE(index.Selects(theta1, testing::ClassOf(index, 0, 0)));
}

TEST(SignatureIndexTest, EmptyPredicateSelectsEverything) {
  SignatureIndex index = testing::Example21Index();
  EXPECT_EQ(index.CountSelected(JoinPredicate()), index.num_tuples());
}

TEST(SignatureIndexTest, FullPredicateSelectsNothingHere) {
  SignatureIndex index = testing::Example21Index();
  EXPECT_EQ(index.CountSelected(index.omega().Full()), 0u);
  EXPECT_FALSE(index.IsNonNullable(index.omega().Full()));
}

TEST(SignatureIndexTest, InstanceEquivalence) {
  SignatureIndex index = testing::Example21Index();
  const Omega& omega = index.omega();
  // θ3 = {(A2,B1),(A2,B2),(A2,B3)} and Ω both select nothing.
  JoinPredicate theta3 = testing::Pred(omega, {{1, 0}, {1, 1}, {1, 2}});
  EXPECT_TRUE(index.EquivalentOnInstance(theta3, omega.Full()));
  EXPECT_FALSE(index.EquivalentOnInstance(theta3, JoinPredicate()));
  EXPECT_TRUE(index.EquivalentOnInstance(theta3, theta3));
}

TEST(SignatureIndexTest, SingleTupleInstanceSection33) {
  // §3.3: R1 = {(1,1)}, P1 = {(1)}: every predicate is instance-equivalent.
  auto r = rel::Relation::Make("R1", {"A1", "A2"}, {{1, 1}});
  auto p = rel::Relation::Make("P1", {"B1"}, {{1}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_classes(), 1u);
  EXPECT_EQ(index->cls(0).signature, index->omega().Full());
  EXPECT_TRUE(
      index->EquivalentOnInstance(JoinPredicate(), index->omega().Full()));
}

// --- Maximality flags (TD strategy input) -----------------------------------

TEST(SignatureIndexTest, MaximalSignaturesOfExample21) {
  SignatureIndex index = testing::Example21Index();
  const Omega& omega = index.omega();
  // The ⊆-maximal signatures are the three size-3 ones plus the four
  // size-2 signatures not contained in any size-3 signature.
  std::vector<JoinPredicate> expected_maximal = {
      testing::Pred(omega, {{0, 2}, {1, 0}, {1, 1}}),  // (t1,t1')
      testing::Pred(omega, {{0, 1}, {0, 2}, {1, 0}}),  // (t2,t3')
      testing::Pred(omega, {{0, 0}, {0, 1}, {1, 2}}),  // (t4,t1')
      testing::Pred(omega, {{0, 0}, {1, 1}}),          // (t1,t2')
      testing::Pred(omega, {{0, 2}, {1, 2}}),          // (t3,t2')
      testing::Pred(omega, {{0, 0}, {1, 0}}),          // (t3,t3')
      testing::Pred(omega, {{1, 1}, {1, 2}}),          // (t4,t3')
  };
  size_t maximal_count = 0;
  for (const auto& c : index.classes()) {
    if (c.maximal) {
      ++maximal_count;
      EXPECT_NE(std::find(expected_maximal.begin(), expected_maximal.end(),
                          c.signature),
                expected_maximal.end())
          << omega.Format(c.signature);
    }
  }
  EXPECT_EQ(maximal_count, 7u);
}

// --- Visiting orders (BU and TD read these) ---------------------------------

TEST(SignatureIndexTest, VisitingOrdersFollowSizeAndMaximality) {
  for (bool compress : {true, false}) {
    SCOPED_TRACE(compress ? "compressed" : "uncompressed");
    auto inst = workload::GenerateSynthetic({3, 2, 25, 4}, 17);
    ASSERT_TRUE(inst.ok());
    auto index =
        SignatureIndex::Build(inst->r, inst->p, {.compress = compress});
    ASSERT_TRUE(index.ok());

    // Every id once, sorted by (popcount, id).
    std::vector<ClassId> want(index->num_classes());
    for (ClassId c = 0; c < want.size(); ++c) want[c] = c;
    std::stable_sort(want.begin(), want.end(), [&](ClassId a, ClassId b) {
      return index->cls(a).signature.Count() < index->cls(b).signature.Count();
    });
    std::span<const ClassId> by_size = index->ClassesBySize();
    EXPECT_EQ(std::vector<ClassId>(by_size.begin(), by_size.end()), want);

    // Exactly the flagged ids, in id order.
    std::vector<ClassId> flagged;
    for (ClassId c = 0; c < index->num_classes(); ++c) {
      if (index->cls(c).maximal) flagged.push_back(c);
    }
    ASSERT_FALSE(flagged.empty());
    std::span<const ClassId> maximal = index->MaximalClasses();
    EXPECT_EQ(std::vector<ClassId>(maximal.begin(), maximal.end()), flagged);
  }
}

// --- Compression -------------------------------------------------------------

TEST(SignatureIndexTest, DuplicateRowsCollapseIntoWeightedClasses) {
  auto r = rel::Relation::Make("R", {"A"}, {{1}, {1}, {2}});
  auto p = rel::Relation::Make("P", {"B"}, {{1}, {3}, {3}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_tuples(), 9u);
  // Signatures: {(A,B)} for (1,1) pairs: weight 2*1 = 2; {} for the rest: 7.
  ASSERT_EQ(index->num_classes(), 2u);
  auto match = index->ClassOfSignature(
      index->omega().PredicateFromPairs({{0, 0}}));
  auto empty = index->ClassOfSignature(JoinPredicate());
  ASSERT_TRUE(match.has_value());
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(index->cls(*match).count, 2u);
  EXPECT_EQ(index->cls(*empty).count, 7u);
}

TEST(SignatureIndexTest, ClassCountsSumToCartesianSize) {
  util::Rng rng(42);
  std::vector<rel::Row> r_rows, p_rows;
  for (int i = 0; i < 20; ++i) {
    r_rows.push_back({rng.NextInRange(0, 3), rng.NextInRange(0, 3)});
    p_rows.push_back({rng.NextInRange(0, 3), rng.NextInRange(0, 3)});
  }
  auto r = rel::Relation::Make("R", {"A1", "A2"}, std::move(r_rows));
  auto p = rel::Relation::Make("P", {"B1", "B2"}, std::move(p_rows));
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  uint64_t total = 0;
  for (const auto& c : index->classes()) total += c.count;
  EXPECT_EQ(total, 400u);
}

// --- NULL handling ------------------------------------------------------------

TEST(SignatureIndexTest, NullCellsNeverMatch) {
  auto r = rel::Relation::Make("R", {"A"}, {{rel::Value()}});
  auto p = rel::Relation::Make("P", {"B"}, {{rel::Value()}, {1}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->SignatureOfPair(0, 0), JoinPredicate());
  EXPECT_EQ(index->SignatureOfPair(0, 1), JoinPredicate());
}

// Regression for the dictionary's NULL-code invariant: NULL codes are drawn
// from a range disjoint from non-null codes, so interleaving NULL and
// non-NULL encodes in any order can never make a NULL cell join with a
// value cell encoded later — nor break equality of identical values
// surrounding the NULLs.
TEST(SignatureIndexTest, InterleavedNullAndValueEncodesNeverCollide) {
  // NULLs appear before, between and after the repeated value 7; every
  // non-null 7 must still match every other 7, and no NULL matches anything.
  auto r = rel::Relation::Make(
      "R", {"A1", "A2"},
      {{rel::Value(), 7}, {7, rel::Value()}, {rel::Value(), rel::Value()}});
  auto p = rel::Relation::Make(
      "P", {"B1", "B2"},
      {{7, rel::Value()}, {rel::Value(), 7}, {rel::Value(), rel::Value()}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  const Omega& omega = index->omega();
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      JoinPredicate expected;
      for (size_t a = 0; a < 2; ++a) {
        for (size_t b = 0; b < 2; ++b) {
          if (!r->at(i, a).is_null() && !p->at(j, b).is_null() &&
              r->at(i, a) == p->at(j, b)) {
            expected.Set(omega.BitOf(a, b));
          }
        }
      }
      EXPECT_EQ(index->SignatureOfPair(i, j), expected)
          << "pair (" << i << "," << j << ")";
    }
  }
  // The all-NULL rows pair with everything under the empty signature only.
  EXPECT_EQ(index->SignatureOfPair(2, 0), JoinPredicate());
  EXPECT_EQ(index->SignatureOfPair(2, 1), JoinPredicate());
  EXPECT_EQ(index->SignatureOfPair(2, 2), JoinPredicate());
}

// Many NULLs must not consume codes that later non-null values would reuse
// (the historical hazard of a single shared counter).
TEST(SignatureIndexTest, NullHeavyColumnsKeepValueEqualityIntact) {
  std::vector<rel::Row> r_rows, p_rows;
  for (int i = 0; i < 8; ++i) {
    r_rows.push_back({rel::Value(), i % 3});
    p_rows.push_back({i % 3, rel::Value()});
  }
  auto r = rel::Relation::Make("R", {"A1", "A2"}, std::move(r_rows));
  auto p = rel::Relation::Make("P", {"B1", "B2"}, std::move(p_rows));
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  const Omega& omega = index->omega();
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      JoinPredicate expected;
      if ((i % 3) == (j % 3)) expected.Set(omega.BitOf(1, 0));
      EXPECT_EQ(index->SignatureOfPair(i, j), expected)
          << "pair (" << i << "," << j << ")";
    }
  }
}

// --- Validation ----------------------------------------------------------------

TEST(SignatureIndexTest, EmptyInstanceRejected) {
  auto r = rel::Relation::Make("R", {"A"}, {});
  auto p = rel::Relation::Make("P", {"B"}, {{1}});
  EXPECT_TRUE(SignatureIndex::Build(*r, *p).status().IsInvalidArgument());
  EXPECT_TRUE(SignatureIndex::Build(*p, *r).status().IsInvalidArgument());
}

TEST(SignatureIndexTest, CapacityPropagates) {
  std::vector<std::string> names;
  for (int i = 0; i < 17; ++i) names.push_back("C" + std::to_string(i));
  auto r = rel::Relation::Make("R", names,
                               {rel::Row(17, rel::Value(1))});
  auto p = rel::Relation::Make("P", names,
                               {rel::Row(17, rel::Value(1))});
  // 17*17 = 289 > 256.
  EXPECT_TRUE(SignatureIndex::Build(*r, *p).status().IsCapacityExceeded());
}

// --- Property: index signature == brute-force recomputation -----------------

class SignatureIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SignatureIndexPropertyTest, AgreesWithDirectComputation) {
  util::Rng rng(GetParam());
  std::vector<rel::Row> r_rows, p_rows;
  for (int i = 0; i < 15; ++i) {
    r_rows.push_back(
        {rng.NextInRange(0, 4), rng.NextInRange(0, 4), rng.NextInRange(0, 4)});
  }
  for (int i = 0; i < 12; ++i) {
    p_rows.push_back({rng.NextInRange(0, 4), rng.NextInRange(0, 4)});
  }
  auto r = rel::Relation::Make("R", {"A1", "A2", "A3"}, std::move(r_rows));
  auto p = rel::Relation::Make("P", {"B1", "B2"}, std::move(p_rows));
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());

  for (size_t i = 0; i < r->num_rows(); ++i) {
    for (size_t j = 0; j < p->num_rows(); ++j) {
      // Direct definition of T(t): all (Ai,Bj) with equal values.
      JoinPredicate expected;
      for (size_t a = 0; a < 3; ++a) {
        for (size_t b = 0; b < 2; ++b) {
          if (r->at(i, a) == p->at(j, b)) {
            expected.Set(index->omega().BitOf(a, b));
          }
        }
      }
      EXPECT_EQ(index->SignatureOfPair(i, j), expected);
      auto cls = index->ClassOfSignature(expected);
      ASSERT_TRUE(cls.has_value());
      EXPECT_EQ(index->cls(*cls).signature, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureIndexPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace core
}  // namespace jinfer
