#include "relational/join.h"

#include <gtest/gtest.h>

#include "testing/join_reference.h"
#include "testing/paper_fixtures.h"
#include "util/rng.h"

namespace jinfer {
namespace rel {
namespace {

using IndexPairs = std::vector<std::pair<size_t, size_t>>;

// --- Example 2.1 expected results (§2 of the paper) ------------------------

TEST(EquijoinTest, Example21Theta1) {
  // θ1 = {(A1,B1),(A2,B3)}: R0 ⋈θ1 P0 = {(t2,t2'), (t4,t1')}.
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto idx = EquijoinIndices(r, p, {{0, 0}, {1, 2}});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (IndexPairs{{1, 1}, {3, 0}}));
}

TEST(EquijoinTest, Example21Theta2) {
  // θ2 = {(A2,B2)}: R0 ⋈θ2 P0 = {(t1,t1'), (t1,t2'), (t4,t3')}.
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto idx = EquijoinIndices(r, p, {{1, 1}});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (IndexPairs{{0, 0}, {0, 1}, {3, 2}}));
}

TEST(EquijoinTest, Example21Theta3Empty) {
  // θ3 = {(A2,B1),(A2,B2),(A2,B3)}: empty result.
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto idx = EquijoinIndices(r, p, {{1, 0}, {1, 1}, {1, 2}});
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(idx->empty());
}

TEST(SemijoinTest, Example21AllThree) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  // R0 ⋉θ1 P0 = {t2, t4}
  auto s1 = SemijoinIndices(r, p, {{0, 0}, {1, 2}});
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, (std::vector<size_t>{1, 3}));
  // R0 ⋉θ2 P0 = {t1, t4}
  auto s2 = SemijoinIndices(r, p, {{1, 1}});
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, (std::vector<size_t>{0, 3}));
  // R0 ⋉θ3 P0 = {}
  auto s3 = SemijoinIndices(r, p, {{1, 0}, {1, 1}, {1, 2}});
  ASSERT_TRUE(s3.ok());
  EXPECT_TRUE(s3->empty());
}

// --- Degenerate predicates --------------------------------------------------

TEST(EquijoinTest, EmptyThetaIsCartesianProduct) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto idx = EquijoinIndices(r, p, {});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->size(), 12u);
}

TEST(SemijoinTest, EmptyThetaSelectsAllWhenPNonEmpty) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto s = SemijoinIndices(r, p, {});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), r.num_rows());
}

TEST(SemijoinTest, EmptyThetaSelectsNothingWhenPEmpty) {
  auto r = testing::Example21R();
  auto empty = Relation::Make("P", {"B1"}, {});
  auto s = SemijoinIndices(r, *empty, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());
}

// --- Validation -------------------------------------------------------------

TEST(JoinValidationTest, OutOfRangeRAttribute) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  EXPECT_TRUE(EquijoinIndices(r, p, {{2, 0}}).status().IsOutOfRange());
}

TEST(JoinValidationTest, OutOfRangePAttribute) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  EXPECT_TRUE(SemijoinIndices(r, p, {{0, 3}}).status().IsOutOfRange());
}

// --- NULL semantics ---------------------------------------------------------

TEST(JoinNullTest, NullNeverJoins) {
  auto r = Relation::Make("R", {"A"}, {{Value()}, {1}});
  auto p = Relation::Make("P", {"B"}, {{Value()}, {1}});
  auto idx = EquijoinIndices(*r, *p, {{0, 0}});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, (IndexPairs{{1, 1}}));  // Only 1=1; NULL matches nothing.
}

TEST(JoinNullTest, NaiveAgreesOnNulls) {
  auto r = Relation::Make("R", {"A"}, {{Value()}, {1}});
  auto p = Relation::Make("P", {"B"}, {{Value()}, {1}});
  EXPECT_EQ(*EquijoinIndices(*r, *p, {{0, 0}}),
            *EquijoinIndicesNaive(*r, *p, {{0, 0}}));
}

// --- Cross-type columns -----------------------------------------------------

TEST(JoinTypeTest, IntNeverJoinsString) {
  auto r = Relation::Make("R", {"A"}, {{1}});
  auto p = Relation::Make("P", {"B"}, {{"1"}});
  auto idx = EquijoinIndices(*r, *p, {{0, 0}});
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(idx->empty());
}

// --- Duplicates (bag semantics on indices) ----------------------------------

TEST(JoinDuplicateTest, DuplicateRowsYieldAllPairs) {
  auto r = Relation::Make("R", {"A"}, {{1}, {1}});
  auto p = Relation::Make("P", {"B"}, {{1}, {1}});
  auto idx = EquijoinIndices(*r, *p, {{0, 0}});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->size(), 4u);
}

// --- Materialized results ---------------------------------------------------

TEST(EquijoinRelationTest, QualifiedSchemaAndRows) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto joined = EquijoinRelation(r, p, {{0, 0}, {1, 2}}, "J");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->schema().attribute_names()[0], "R0.A1");
  EXPECT_EQ(joined->schema().attribute_names()[2], "P0.B1");
  EXPECT_EQ(joined->num_rows(), 2u);
  EXPECT_EQ(joined->at(0, 0), Value(0));  // t2 = (0,2)
}

TEST(CartesianProductTest, SizeAndContent) {
  auto r = testing::Example21R();
  auto p = testing::Example21P();
  auto d = EquijoinRelation(r, p, {}, "D0");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_rows(), 12u);
  EXPECT_EQ(d->num_attributes(), 5u);
}

// --- Properties: hash join ≡ nested loop; anti-monotonicity ----------------

struct RandomJoinCase {
  uint64_t seed;
};

class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Relation RandomRelation(const std::string& name, size_t attrs, size_t rows,
                        int64_t domain, util::Rng& rng) {
  std::vector<std::string> names;
  for (size_t i = 0; i < attrs; ++i) {
    names.push_back(name + "c" + std::to_string(i));
  }
  std::vector<Row> data;
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < attrs; ++c) {
      if (rng.NextBool(0.1)) {
        row.emplace_back(Value());  // Sprinkle NULLs.
      } else {
        row.emplace_back(rng.NextInRange(0, domain - 1));
      }
    }
    data.push_back(std::move(row));
  }
  auto rel = Relation::Make(name, std::move(names), std::move(data));
  return std::move(rel).ValueOrDie();
}

TEST_P(JoinPropertyTest, HashJoinMatchesNestedLoop) {
  util::Rng rng(GetParam());
  Relation r = RandomRelation("R", 3, 30, 6, rng);
  Relation p = RandomRelation("P", 2, 25, 6, rng);
  for (const std::vector<AttrPair>& theta :
       {std::vector<AttrPair>{{0, 0}}, std::vector<AttrPair>{{1, 1}},
        std::vector<AttrPair>{{0, 1}, {2, 0}}}) {
    auto fast = EquijoinIndices(r, p, theta);
    auto slow = EquijoinIndicesNaive(r, p, theta);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow);
  }
}

TEST_P(JoinPropertyTest, AntiMonotonicityEquijoin) {
  // θ1 ⊆ θ2 implies R ⋈θ2 P ⊆ R ⋈θ1 P (§2).
  util::Rng rng(GetParam() ^ 0xabc);
  Relation r = RandomRelation("R", 3, 25, 5, rng);
  Relation p = RandomRelation("P", 3, 25, 5, rng);
  std::vector<AttrPair> theta1 = {{0, 0}};
  std::vector<AttrPair> theta2 = {{0, 0}, {1, 1}};
  auto big = EquijoinIndices(r, p, theta1);
  auto small = EquijoinIndices(r, p, theta2);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  for (const auto& pair : *small) {
    EXPECT_NE(std::find(big->begin(), big->end(), pair), big->end());
  }
  EXPECT_LE(small->size(), big->size());
}

TEST_P(JoinPropertyTest, AntiMonotonicitySemijoin) {
  util::Rng rng(GetParam() ^ 0xdef);
  Relation r = RandomRelation("R", 3, 25, 5, rng);
  Relation p = RandomRelation("P", 3, 25, 5, rng);
  auto big = SemijoinIndices(r, p, {{1, 1}});
  auto small = SemijoinIndices(r, p, {{1, 1}, {2, 2}});
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  for (size_t row : *small) {
    EXPECT_NE(std::find(big->begin(), big->end(), row), big->end());
  }
}

TEST_P(JoinPropertyTest, SemijoinIsProjectionOfEquijoin) {
  // R ⋉θ P = Π_R(R ⋈θ P) (§2).
  util::Rng rng(GetParam() ^ 0x123);
  Relation r = RandomRelation("R", 2, 20, 4, rng);
  Relation p = RandomRelation("P", 2, 20, 4, rng);
  std::vector<AttrPair> theta = {{0, 1}};
  auto join = EquijoinIndices(r, p, theta);
  auto semi = SemijoinIndices(r, p, theta);
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(semi.ok());
  std::vector<size_t> projected;
  for (const auto& [i, j] : *join) {
    if (projected.empty() || projected.back() != i) projected.push_back(i);
  }
  EXPECT_EQ(*semi, projected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rel
}  // namespace jinfer
