// OPT — the optimal strategy of §4.1.
//
// The paper notes that an optimal strategy (minimizing the worst-case
// number of interactions) exists by the standard minimax construction and
// is exponential, which "renders it unusable in practice". We implement it
// anyway for small instances: it gives the tests and the lookahead-depth
// ablation a ground-truth floor against which BU/TD/LkS are judged.
//
//   V(S) = 0                                   if no informative tuple
//   V(S) = min over informative t of
//            1 + max over α∈{+,−} V(S ∪ {(t,α)})   otherwise
//
// Since PR 2 the search runs on the delta-frame MinimaxEngine (Zobrist-
// hashed transposition table, iterative-deepening bounds, root-split
// parallelism — see minimax_engine.h) instead of the seed's copy-per-node
// map memo, which is retained in the test library
// (tests/testing/minimax_reference.h) as the property-test yardstick. Guarded by a node budget: instances beyond ~20 classes are
// not what OPT is for.

#ifndef JINFER_CORE_STRATEGIES_OPTIMAL_STRATEGY_H_
#define JINFER_CORE_STRATEGIES_OPTIMAL_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/strategies/minimax_engine.h"
#include "core/strategy.h"

namespace jinfer {
namespace core {

/// Process-wide default for the engine's root-split worker count, used by
/// every OPT entry point that is not given an explicit thread count
/// (0 = one per hardware thread). Benches set it from JINFER_BENCH_THREADS;
/// the library default is 1. Results never depend on it.
void SetOptimalSearchThreads(int threads);
int OptimalSearchThreads();

class OptimalStrategy : public Strategy {
 public:
  /// `node_budget` bounds the search per root-split worker; exceeding it
  /// aborts (use a cheaper strategy for such instances). `threads`
  /// overrides the SetOptimalSearchThreads default when set.
  explicit OptimalStrategy(uint64_t node_budget = 5'000'000,
                           std::optional<int> threads = std::nullopt)
      : node_budget_(node_budget), threads_(threads) {}

  const char* name() const override { return "OPT"; }
  std::optional<ClassId> SelectNext(const InferenceState& state) override;

 private:
  uint64_t node_budget_;
  std::optional<int> threads_;
  /// Engine cached across the session's SelectNext calls (the transposition
  /// tables carry over — later picks re-enter subtrees of earlier ones);
  /// rebuilt when the state's index changes. Identity is the index's
  /// process-unique build id, so recycling one strategy instance across
  /// freshly built indexes is safe even if an address is reused.
  std::unique_ptr<MinimaxEngine> engine_;
  uint64_t engine_build_id_ = 0;
};

/// Worst-case number of interactions to reach the halt condition Γ from
/// `state` under optimal play — the minimax value of §4.1. `threads`
/// overrides the SetOptimalSearchThreads default when set; the value is
/// identical for every thread count.
size_t MinimaxInteractions(const InferenceState& state,
                           uint64_t node_budget = 5'000'000,
                           std::optional<int> threads = std::nullopt);

/// Worst-case number of interactions the given strategy needs on `index`
/// over ALL possible goal behaviors (i.e., against an adversarial oracle
/// answering any consistent label). Used by tests and benches to compare
/// strategies with the optimum. Exponential like OPT; small instances
/// only. Memoizes on the sample set, so `strategy` must be deterministic
/// (every bundled strategy except RND is; enforced via
/// Strategy::deterministic()).
size_t WorstCaseInteractions(const SignatureIndex& index, Strategy& strategy,
                             uint64_t node_budget = 5'000'000);

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_STRATEGIES_OPTIMAL_STRATEGY_H_
