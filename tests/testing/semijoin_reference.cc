#include "testing/semijoin_reference.h"

#include <algorithm>
#include <vector>

namespace jinfer {
namespace semi {

std::optional<core::JoinPredicate> CheckConsistencyBruteForce(
    const SemijoinInstance& instance, const RowSample& sample) {
  const size_t omega_size = instance.omega().size();
  JINFER_CHECK(omega_size <= 24, "brute force limited to |Omega| <= 24");

  // Enumerate by popcount then numeric value so the most general consistent
  // predicate is found first.
  std::vector<uint32_t> masks(size_t{1} << omega_size);
  for (uint32_t m = 0; m < masks.size(); ++m) masks[m] = m;
  std::stable_sort(masks.begin(), masks.end(),
                   [](uint32_t a, uint32_t b) {
                     int ca = __builtin_popcount(a), cb = __builtin_popcount(b);
                     if (ca != cb) return ca < cb;
                     return a < b;
                   });

  for (uint32_t mask : masks) {
    core::JoinPredicate theta;
    for (size_t bit = 0; bit < omega_size; ++bit) {
      if ((mask >> bit) & 1) theta.Set(bit);
    }
    if (instance.ConsistentWith(theta, sample)) return theta;
  }
  return std::nullopt;
}

}  // namespace semi
}  // namespace jinfer
