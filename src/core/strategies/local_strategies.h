// Local strategies (§4.3): bottom-up and top-down lattice navigation.
// "Local" because they follow a simple order on the lattice and ignore how
// much information a label would prune. That order is fixed by the
// instance, so the SignatureIndex keeps it (ClassesBySize,
// MaximalClasses) and a pick walks it to the first informative class:
// one list entry and one state byte per class it skips, no class record.

#ifndef JINFER_CORE_STRATEGIES_LOCAL_STRATEGIES_H_
#define JINFER_CORE_STRATEGIES_LOCAL_STRATEGIES_H_

#include "core/strategy.h"

namespace jinfer {
namespace core {

/// Algorithm 2: present an informative tuple with the smallest |T(t)| —
/// navigate from the most general predicate (∅) towards Ω. Finds goal ∅ in
/// one interaction; may degenerate to labeling everything for large goals.
class BottomUpStrategy : public Strategy {
 public:
  const char* name() const override { return "BU"; }
  std::optional<ClassId> SelectNext(const InferenceState& state) override;
  bool one_pass() const override { return true; }
};

/// Algorithm 3: while no positive example exists, present tuples whose
/// signature is ⊆-maximal among all tuple signatures (pruning the lattice
/// from Ω downwards via Lemma 3.4); once a positive example arrives, the
/// goal is non-nullable and the strategy behaves like BU.
class TopDownStrategy : public Strategy {
 public:
  const char* name() const override { return "TD"; }
  std::optional<ClassId> SelectNext(const InferenceState& state) override;
  bool one_pass() const override { return true; }
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_STRATEGIES_LOCAL_STRATEGIES_H_
