// Oracles: the "user" of the interactive scenario (§3.2).
//
// The experiments simulate the user with GoalOracle, which labels tuples
// consistently with a goal predicate θG — exactly the paper's setup. The
// tests' LyingOracle (tests/testing/lying_oracle.h) injects label noise
// for failure testing (Algorithm 1 must detect the resulting
// inconsistency). Interactive (stdin) oracles live in the examples, not
// the library.

#ifndef JINFER_CORE_ORACLE_H_
#define JINFER_CORE_ORACLE_H_

#include "core/signature_index.h"
#include "core/types.h"

namespace jinfer {
namespace core {

class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Labels one tuple (presented as its signature class).
  virtual Label LabelClass(const SignatureIndex& index, ClassId cls) = 0;
};

/// Labels a tuple + iff θG selects it, i.e. iff θG ⊆ T(t).
class GoalOracle : public Oracle {
 public:
  explicit GoalOracle(JoinPredicate goal) : goal_(goal) {}

  Label LabelClass(const SignatureIndex& index, ClassId cls) override {
    return goal_.IsSubsetOf(index.cls(cls).signature) ? Label::kPositive
                                                      : Label::kNegative;
  }

  const JoinPredicate& goal() const { return goal_; }

 private:
  JoinPredicate goal_;
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_ORACLE_H_
