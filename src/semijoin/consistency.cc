#include "semijoin/consistency.h"

namespace jinfer {
namespace semi {

namespace {

/// Builds the CNF described in the header. Atom ω (bit b of Ω) maps to SAT
/// variable b+1; auxiliary selection variables follow.
sat::Cnf EncodeConsistency(const SemijoinInstance& instance,
                           const RowSample& sample) {
  const size_t omega_size = instance.omega().size();
  sat::Cnf cnf(static_cast<int>(omega_size));

  for (const RowExample& ex : sample) {
    const auto& sigs = instance.MaximalSignatures(ex.r_row);
    if (ex.label == core::Label::kPositive) {
      // ∨_σ y_σ ; y_σ → ¬x_ω for every ω outside σ.
      sat::Clause witness_clause;
      for (const core::JoinPredicate& sig : sigs) {
        int y = cnf.NewVar();
        witness_clause.push_back(y);
        for (size_t bit = 0; bit < omega_size; ++bit) {
          if (!sig.Test(bit)) {
            cnf.AddBinary(-y, -static_cast<int>(bit + 1));
          }
        }
      }
      // An empty witness clause (P empty) correctly yields UNSAT.
      cnf.AddClause(std::move(witness_clause));
    } else {
      // For every maximal signature σ: θ must escape σ somewhere.
      for (const core::JoinPredicate& sig : sigs) {
        sat::Clause escape;
        for (size_t bit = 0; bit < omega_size; ++bit) {
          if (!sig.Test(bit)) escape.push_back(static_cast<int>(bit + 1));
        }
        // σ = Ω gives the empty clause: the row is selected by every θ, so
        // a negative label is unsatisfiable — which is correct.
        cnf.AddClause(std::move(escape));
      }
    }
  }
  return cnf;
}

core::JoinPredicate PredicateFromModel(const std::vector<bool>& model,
                                       size_t omega_size) {
  core::JoinPredicate theta;
  for (size_t bit = 0; bit < omega_size; ++bit) {
    if (model[bit + 1]) theta.Set(bit);
  }
  return theta;
}

}  // namespace

ConsistencyResult CheckConsistencySat(const SemijoinInstance& instance,
                                      const RowSample& sample) {
  sat::Cnf cnf = EncodeConsistency(instance, sample);
  sat::DpllSolver solver;
  sat::SolveResult solved = solver.Solve(cnf);

  ConsistencyResult result;
  result.stats = solved.stats;
  result.consistent = solved.satisfiable;
  if (solved.satisfiable) {
    result.witness = PredicateFromModel(solved.assignment,
                                        instance.omega().size());
    JINFER_CHECK(instance.ConsistentWith(result.witness, sample),
                 "SAT witness fails direct verification");
  }
  return result;
}

bool IsMaximallySpecificForPositives(const SemijoinInstance& instance,
                                     const RowSample& positives,
                                     const core::JoinPredicate& theta) {
  for (const RowExample& ex : positives) {
    JINFER_CHECK(ex.label == core::Label::kPositive,
                 "sample must be positive-only");
  }
  JINFER_CHECK(instance.ConsistentWith(theta, positives),
               "theta must be consistent with the positives");

  // SAT query: does some θ′ ⊋ θ select every positive?
  const size_t omega_size = instance.omega().size();
  sat::Cnf cnf = EncodeConsistency(instance, positives);
  // Force θ ⊆ θ′.
  for (size_t bit = 0; bit < omega_size; ++bit) {
    if (theta.Test(bit)) cnf.AddUnit(static_cast<int>(bit + 1));
  }
  // Force θ′ ≠ θ: some atom outside θ must be chosen.
  sat::Clause strict;
  for (size_t bit = 0; bit < omega_size; ++bit) {
    if (!theta.Test(bit)) strict.push_back(static_cast<int>(bit + 1));
  }
  cnf.AddClause(std::move(strict));

  sat::DpllSolver solver;
  return !solver.Solve(cnf).satisfiable;
}

}  // namespace semi
}  // namespace jinfer
