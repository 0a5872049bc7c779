// CONS⋉ — semijoin consistency checking (§6).
//
// The problem is NP-complete (Theorem 6.1). The production decision
// procedure encodes it into CNF and runs the DPLL solver:
//
//   variable x_ω per atom ω ∈ Ω               (θ = {ω | x_ω true})
//   positive row t:  ∨_σ y_{t,σ} over t's maximal signatures σ, with
//                    y_{t,σ} → ¬x_ω for each ω ∉ σ     (θ ⊆ σ, Tseitin)
//   negative row t:  ∨_{ω ∉ σ} x_ω for each maximal signature σ of t
//                                                       (θ ⊈ σ)
//
// A brute-force enumerator over P(Ω) cross-validates the encoding in tests
// (tests/testing/semijoin_reference.h; only feasible for |Ω| ≤ ~24).

#ifndef JINFER_SEMIJOIN_CONSISTENCY_H_
#define JINFER_SEMIJOIN_CONSISTENCY_H_

#include "sat/dpll.h"
#include "semijoin/semijoin_instance.h"

namespace jinfer {
namespace semi {

struct ConsistencyResult {
  bool consistent = false;
  /// A consistent semijoin predicate when one exists.
  core::JoinPredicate witness;
  sat::SolveStats stats;
};

/// Decides CONS⋉ via the SAT encoding.
ConsistencyResult CheckConsistencySat(const SemijoinInstance& instance,
                                      const RowSample& sample);

/// Extension (paper §7 future work): with a positive-only sample, decides
/// whether the consistent predicate θ is *maximally specific* — no strict
/// superset of θ also selects every positive example. Decided with one SAT
/// call on the complement. θ must itself be consistent with the positives.
bool IsMaximallySpecificForPositives(const SemijoinInstance& instance,
                                     const RowSample& positives,
                                     const core::JoinPredicate& theta);

}  // namespace semi
}  // namespace jinfer

#endif  // JINFER_SEMIJOIN_CONSISTENCY_H_
