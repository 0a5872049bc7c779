// RND (§4.1): the baseline strategy — a uniformly random informative tuple.
// Sampling is tuple-weighted (classes weighted by multiplicity) to match
// the paper's tuple-level formulation.

#ifndef JINFER_CORE_STRATEGIES_RANDOM_STRATEGY_H_
#define JINFER_CORE_STRATEGIES_RANDOM_STRATEGY_H_

#include "core/strategy.h"
#include "util/rng.h"

namespace jinfer {
namespace core {

class RandomStrategy : public Strategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}

  const char* name() const override { return "RND"; }
  std::optional<ClassId> SelectNext(const InferenceState& state) override;
  bool deterministic() const override { return false; }
  bool one_pass() const override { return true; }

 private:
  util::Rng rng_;
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_STRATEGIES_RANDOM_STRATEGY_H_
