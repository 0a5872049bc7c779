#include "sat/dpll.h"

#include <gtest/gtest.h>

#include "sat/random_cnf.h"
#include "testing/sat_reference.h"
#include "util/rng.h"

namespace jinfer {
namespace sat {
namespace {

TEST(DpllTest, EmptyFormulaIsSat) {
  Cnf cnf(3);
  SolveResult r = DpllSolver().Solve(cnf);
  EXPECT_TRUE(r.satisfiable);
}

TEST(DpllTest, SingleUnit) {
  Cnf cnf(1);
  cnf.AddUnit(-1);
  SolveResult r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_FALSE(r.assignment[1]);
}

TEST(DpllTest, ContradictingUnitsAreUnsat) {
  Cnf cnf(1);
  cnf.AddUnit(1);
  cnf.AddUnit(-1);
  EXPECT_FALSE(DpllSolver().Solve(cnf).satisfiable);
}

TEST(DpllTest, EmptyClauseIsUnsat) {
  Cnf cnf(2);
  cnf.AddClause({});
  EXPECT_FALSE(DpllSolver().Solve(cnf).satisfiable);
}

TEST(DpllTest, ChainOfImplications) {
  // x1, x1→x2, x2→x3, x3→x4: all forced true.
  Cnf cnf(4);
  cnf.AddUnit(1);
  cnf.AddBinary(-1, 2);
  cnf.AddBinary(-2, 3);
  cnf.AddBinary(-3, 4);
  SolveResult r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.satisfiable);
  for (int v = 1; v <= 4; ++v) EXPECT_TRUE(r.assignment[static_cast<size_t>(v)]);
  EXPECT_GE(r.stats.propagations, 3u);
}

TEST(DpllTest, ClassicUnsatisfiableTriple) {
  // (x1∨x2) ∧ (x1∨¬x2) ∧ (¬x1∨x2) ∧ (¬x1∨¬x2) is unsat.
  Cnf cnf(2);
  cnf.AddBinary(1, 2);
  cnf.AddBinary(1, -2);
  cnf.AddBinary(-1, 2);
  cnf.AddBinary(-1, -2);
  SolveResult r = DpllSolver().Solve(cnf);
  EXPECT_FALSE(r.satisfiable);
  EXPECT_GE(r.stats.conflicts, 1u);
}

TEST(DpllTest, ModelSatisfiesFormula) {
  util::Rng rng(7);
  Cnf cnf = Random3Cnf(12, 40, rng);
  SolveResult r = DpllSolver().Solve(cnf);
  if (r.satisfiable) {
    EXPECT_TRUE(cnf.IsSatisfiedBy(r.assignment));
  }
}

TEST(DpllTest, PureLiteralsGetEliminated) {
  // x3 appears only positively; formula is satisfiable without branching
  // much.
  Cnf cnf(3);
  cnf.AddBinary(1, 3);
  cnf.AddBinary(-1, 3);
  cnf.AddBinary(2, 3);
  SolveResult r = DpllSolver().Solve(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[3]);
}

TEST(DpllTest, Determinism) {
  util::Rng rng(99);
  Cnf cnf = Random3Cnf(15, 60, rng);
  SolveResult a = DpllSolver().Solve(cnf);
  SolveResult b = DpllSolver().Solve(cnf);
  EXPECT_EQ(a.satisfiable, b.satisfiable);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
}

// --- Property: DPLL ≡ truth-table enumeration ---------------------------------

class DpllPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DpllPropertyTest, MatchesEnumerationOnRandom3Cnf) {
  util::Rng rng(GetParam());
  // Around the sat/unsat threshold (ratio 4.27) with 10 vars.
  for (size_t clauses : {20u, 35u, 43u, 55u}) {
    Cnf cnf = Random3Cnf(10, clauses, rng);
    SolveResult r = DpllSolver().Solve(cnf);
    EXPECT_EQ(r.satisfiable, SatisfiableByEnumeration(cnf))
        << "clauses=" << clauses;
    if (r.satisfiable) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(r.assignment));
    }
  }
}

TEST_P(DpllPropertyTest, MatchesEnumerationOnRandom2Cnf) {
  util::Rng rng(GetParam() ^ 0xbeef);
  Cnf cnf = RandomKCnf(8, 24, 2, rng);
  EXPECT_EQ(DpllSolver().Solve(cnf).satisfiable,
            SatisfiableByEnumeration(cnf));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpllPropertyTest,
                         ::testing::Range(uint64_t{200}, uint64_t{212}));

TEST(RandomCnfTest, ShapeIsRespected) {
  util::Rng rng(5);
  Cnf cnf = Random3Cnf(20, 30, rng);
  EXPECT_EQ(cnf.num_vars(), 20);
  ASSERT_EQ(cnf.num_clauses(), 30u);
  for (const Clause& clause : cnf.clauses()) {
    ASSERT_EQ(clause.size(), 3u);
    EXPECT_NE(VarOf(clause[0]), VarOf(clause[1]));
    EXPECT_NE(VarOf(clause[0]), VarOf(clause[2]));
    EXPECT_NE(VarOf(clause[1]), VarOf(clause[2]));
  }
}

TEST(EnumerationDeathTest, RefusesLargeFormulas) {
  Cnf cnf(25);
  EXPECT_DEATH(SatisfiableByEnumeration(cnf), "24");
}

}  // namespace
}  // namespace sat
}  // namespace jinfer
