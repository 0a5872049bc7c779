// DPLL SAT solver: recursive search with unit propagation, pure-literal
// elimination, and a most-occurrences branching heuristic.
//
// Sized for this library's workloads — CONS⋉ encodings and the appendix
// 3SAT reductions, hundreds of variables — not industrial SAT. Tests
// cross-validate it against truth-table enumeration on small formulas
// (tests/testing/sat_reference.h).

#ifndef JINFER_SAT_DPLL_H_
#define JINFER_SAT_DPLL_H_

#include <cstdint>
#include <vector>

#include "sat/cnf.h"

namespace jinfer {
namespace sat {

struct SolveStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
};

struct SolveResult {
  bool satisfiable = false;
  /// Model when satisfiable: assignment[v] for v in 1..num_vars (index 0
  /// unused). Variables untouched by the search default to false.
  std::vector<bool> assignment;
  SolveStats stats;
};

class DpllSolver {
 public:
  /// Decides satisfiability of the formula. Deterministic.
  SolveResult Solve(const Cnf& cnf);
};

}  // namespace sat
}  // namespace jinfer

#endif  // JINFER_SAT_DPLL_H_
