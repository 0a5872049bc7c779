// LyingOracle: a user who sometimes answers wrong. Tests use it to check
// that Algorithm 1 detects the inconsistent sample a lie can produce, and
// that a lie on an informative tuple misleads it silently.

#ifndef JINFER_TESTS_TESTING_LYING_ORACLE_H_
#define JINFER_TESTS_TESTING_LYING_ORACLE_H_

#include <cstdint>

#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/types.h"
#include "util/rng.h"

namespace jinfer {
namespace core {

/// A GoalOracle that flips each label independently with probability
/// `lie_probability` — failure injection for the consistency check of
/// Algorithm 1 (lines 6-7).
class LyingOracle : public Oracle {
 public:
  LyingOracle(JoinPredicate goal, double lie_probability, uint64_t seed)
      : goal_(goal), lie_probability_(lie_probability), rng_(seed) {}

  Label LabelClass(const SignatureIndex& index, ClassId cls) override {
    Label truth = goal_.IsSubsetOf(index.cls(cls).signature)
                      ? Label::kPositive
                      : Label::kNegative;
    if (rng_.NextBool(lie_probability_)) {
      return truth == Label::kPositive ? Label::kNegative : Label::kPositive;
    }
    return truth;
  }

 private:
  JoinPredicate goal_;
  double lie_probability_;
  util::Rng rng_;
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_LYING_ORACLE_H_
