// Truth-table SAT: the reference oracle the tests cross-validate the
// library's DPLL solver (sat/dpll.h) against on small formulas.

#ifndef JINFER_TESTS_TESTING_SAT_REFERENCE_H_
#define JINFER_TESTS_TESTING_SAT_REFERENCE_H_

#include "sat/cnf.h"

namespace jinfer {
namespace sat {

/// Reference oracle: enumerates all 2^n assignments. Aborts beyond 24
/// variables.
bool SatisfiableByEnumeration(const Cnf& cnf);

}  // namespace sat
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_SAT_REFERENCE_H_
