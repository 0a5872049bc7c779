#include "relational/relation.h"

#include <gtest/gtest.h>

namespace jinfer {
namespace rel {
namespace {

TEST(RelationTest, MakeWithRows) {
  auto r = Relation::Make("R", {"A", "B"}, {{1, 2}, {3, 4}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->num_attributes(), 2u);
  EXPECT_EQ(r->at(1, 0), Value(3));
}

TEST(RelationTest, MakeEmptyRelation) {
  auto r = Relation::Make("R", {"A"}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST(RelationTest, MakePropagatesSchemaError) {
  EXPECT_FALSE(Relation::Make("", {"A"}, {}).ok());
}

TEST(RelationTest, AppendRowArityMismatch) {
  auto r = Relation::Make("R", {"A", "B"}, {});
  ASSERT_TRUE(r.ok());
  util::Status st = r->AppendRow({Value(1)});
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("arity"), std::string::npos);
  EXPECT_EQ(r->num_rows(), 0u);
}

TEST(RelationTest, MakeRejectsRaggedRows) {
  EXPECT_FALSE(Relation::Make("R", {"A", "B"}, {{1, 2}, {3}}).ok());
}

TEST(RelationTest, MixedTypesInColumn) {
  auto r = Relation::Make("R", {"A"}, {{1}, {"one"}, {Value()}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->at(0, 0).is_int());
  EXPECT_TRUE(r->at(1, 0).is_string());
  EXPECT_TRUE(r->at(2, 0).is_null());
}

TEST(RelationTest, ToStringContainsHeaderAndRows) {
  auto r = Relation::Make("R", {"Alpha", "B"}, {{1, 2}});
  std::string s = r->ToString();
  EXPECT_NE(s.find("Alpha"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_NE(s.find("(1 rows)"), std::string::npos);
}

TEST(RelationTest, ToStringTruncates) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value(i)});
  auto r = Relation::Make("R", {"A"}, std::move(rows));
  std::string s = r->ToString(3);
  EXPECT_NE(s.find("7 more rows"), std::string::npos);
}

TEST(RelationTest, FormatRowPinsTheQuestionFormat) {
  // The one tuple renderer behind both CLI modes: an int, a NULL (empty)
  // and a string with a comma, printed verbatim (no CSV quoting).
  auto r = Relation::Make("Flight", {"Id", "Gate", "Route"},
                          {{7, Value(), "Paris, Lille"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->FormatRow(0), "Flight: Id=7, Gate=, Route=Paris, Lille");
}

}  // namespace
}  // namespace rel
}  // namespace jinfer
