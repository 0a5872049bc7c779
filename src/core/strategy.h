// Strategy interface (§4.1): given the current inference state, pick the
// next informative tuple class to present to the user, or none when the
// halt condition Γ holds (no informative tuple left).
//
// Implemented strategies:
//   RND — random informative tuple (baseline; tuple-weighted)
//   BU  — bottom-up on the predicate lattice (Algorithm 2)
//   TD  — top-down, degrades to BU after the first positive (Algorithm 3)
//   L1S — one-step lookahead skyline (Algorithm 4)
//   L2S — two-step lookahead skyline (Algorithm 6)
//   L3S — three-step lookahead (depth ablation; not in the paper)
//   EG  — expected-gain heuristic (paper's §7 future-work direction)

#ifndef JINFER_CORE_STRATEGY_H_
#define JINFER_CORE_STRATEGY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/inference_state.h"
#include "core/types.h"
#include "util/result.h"

namespace jinfer {
namespace core {

enum class StrategyKind {
  kRandom,
  kBottomUp,
  kTopDown,
  kLookahead1,
  kLookahead2,
  kLookahead3,
  kExpectedGain,
  kOptimal,  ///< §4.1's exponential minimax; small instances only.
};

/// Paper abbreviation of a strategy kind ("RND", "BU", "TD", "L1S", ...).
const char* StrategyKindName(StrategyKind kind);

/// Parses a paper abbreviation; fails on unknown names.
util::Result<StrategyKind> StrategyKindFromName(const std::string& name);

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual const char* name() const = 0;

  /// Picks the next class to present. Must return an informative class, or
  /// nullopt iff no informative class remains. May be called repeatedly;
  /// strategies carry no *semantic* state apart from RNG state — the pick
  /// is a function of `state` alone — though they may keep reusable
  /// scratch buffers (sweep columns, entropy vectors) between calls.
  virtual std::optional<ClassId> SelectNext(const InferenceState& state) = 0;

  /// True iff SelectNext is a pure function of the sample set (every
  /// bundled strategy except RND). The worst-case adversary memoizes on
  /// the sample set and requires this.
  virtual bool deterministic() const { return true; }

  /// True iff SelectNext picks in at most one pass over the classes, with
  /// no lookahead or search (BU, TD, RND). RND's pick costs O(classes); BU
  /// and TD walk the index's visiting orders and stop at the first
  /// informative class. The server runs such picks on its event thread
  /// (DESIGN.md §11.2).
  virtual bool one_pass() const { return false; }
};

/// Factory. `seed` only affects the RND strategy.
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind, uint64_t seed = 0);

/// The five strategies evaluated in the paper, in its reporting order:
/// BU, TD, L1S, L2S, RND.
std::vector<StrategyKind> PaperStrategies();

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_STRATEGY_H_
