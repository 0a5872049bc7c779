// The seed's BU and TD picks, retained verbatim as the differential oracle
// for the strategies in core/strategies/local_strategies.cc, which walk
// the SignatureIndex's visiting orders (ClassesBySize, MaximalClasses)
// instead. These scan every class record and re-count every signature, so
// they share nothing with the production picks but IsInformative.
//
// Test-only: it lives in the jinfer_testing library, and nothing in src/
// can reach it.

#ifndef JINFER_TESTS_TESTING_LOCAL_STRATEGIES_REFERENCE_H_
#define JINFER_TESTS_TESTING_LOCAL_STRATEGIES_REFERENCE_H_

#include <optional>

#include "core/inference_state.h"
#include "core/types.h"

namespace jinfer {
namespace core {

/// Algorithm 2 by a full scan: the smallest-|T(t)| informative class,
/// lowest ClassId on ties; nullopt iff no class is informative.
std::optional<ClassId> ReferenceBottomUpPick(const InferenceState& state);

/// Algorithm 3 by a full scan: BU once a positive exists; before that the
/// lowest-id informative maximal class, else the lowest-id informative
/// class.
std::optional<ClassId> ReferenceTopDownPick(const InferenceState& state);

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_LOCAL_STRATEGIES_REFERENCE_H_
