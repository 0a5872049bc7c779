// Reference entropy implementation: the pre-batching per-candidate
// recursion, retained verbatim as the differential oracle for the batched
// sweep in entropy.cc (DESIGN.md §12). Every leaf is scored by its own
// CountNewlyUninformativeBoth call, so the only state API it shares with
// the batch path is the per-candidate one — a disagreement localizes the
// bug to the batch sweep or the packed arrays, not to shared plumbing.
//
// Test-only: it lives in the jinfer_testing library, which every test
// binary links, so the harness still compares against it in every build
// type the CI matrix compiles, and nothing in src/ can reach it.

#ifndef JINFER_TESTS_TESTING_ENTROPY_REFERENCE_H_
#define JINFER_TESTS_TESTING_ENTROPY_REFERENCE_H_

#include "core/entropy.h"
#include "core/inference_state.h"
#include "core/types.h"

namespace jinfer {
namespace core {

/// entropy^k_S(t) by the per-candidate recursion; bit-identical to
/// EntropyKOf for every k, state and candidate.
Entropy EntropyKOfReference(const InferenceState& state, ClassId cls, int k);

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_ENTROPY_REFERENCE_H_
