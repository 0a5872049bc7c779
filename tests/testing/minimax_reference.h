// The seed's exact-search implementation, retained verbatim as the
// yardstick for the delta-frame MinimaxEngine: a copy-per-node
// (WithLabel) minimax memoized through a sorted-vector sample key in a
// std::map.
//
// Kept for two reasons only, which is why it lives in the jinfer_testing
// library and not in src/:
//   * the randomized property tests assert the engine returns identical
//     minimax values / strategy picks / worst cases;
//   * the micro_core OPT benches report the engine's speedup against it.
// Production callers (OptimalStrategy, the benches, the adversary) all go
// through MinimaxEngine.

#ifndef JINFER_TESTS_TESTING_MINIMAX_REFERENCE_H_
#define JINFER_TESTS_TESTING_MINIMAX_REFERENCE_H_

#include <cstdint>
#include <optional>

#include "core/inference_state.h"
#include "core/strategy.h"

namespace jinfer {
namespace core {

/// V(state) computed by the seed's map-memoized copy-per-node search.
size_t ReferenceMinimaxInteractions(const InferenceState& state,
                                    uint64_t node_budget = 5'000'000);

/// The seed OptimalStrategy pick: lowest-ClassId argmin of
/// 1 + max over labels V(child); nullopt iff the halt condition holds.
std::optional<ClassId> ReferenceOptimalPick(const InferenceState& state,
                                            uint64_t node_budget = 5'000'000);

/// The seed adversary: worst-case interactions of `strategy` on `index`
/// over all consistent goal behaviors, unmemoized copy-per-node play.
size_t ReferenceWorstCaseInteractions(const SignatureIndex& index,
                                      Strategy& strategy,
                                      uint64_t node_budget = 5'000'000);

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_MINIMAX_REFERENCE_H_
