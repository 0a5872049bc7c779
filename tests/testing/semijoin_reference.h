// Brute-force CONS⋉: enumerates every θ ⊆ Ω. The reference the tests
// cross-validate the library's SAT encoding (semijoin/consistency.h)
// against; only feasible for |Ω| ≤ ~24.

#ifndef JINFER_TESTS_TESTING_SEMIJOIN_REFERENCE_H_
#define JINFER_TESTS_TESTING_SEMIJOIN_REFERENCE_H_

#include <optional>

#include "core/types.h"
#include "semijoin/semijoin_instance.h"

namespace jinfer {
namespace semi {

/// Reference decision by enumerating all θ ⊆ Ω; aborts for |Ω| > 24.
/// Returns the first consistent predicate in size-then-bit order, if any.
std::optional<core::JoinPredicate> CheckConsistencyBruteForce(
    const SemijoinInstance& instance, const RowSample& sample);

}  // namespace semi
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_SEMIJOIN_REFERENCE_H_
