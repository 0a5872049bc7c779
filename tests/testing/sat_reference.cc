#include "testing/sat_reference.h"

#include <cstdint>
#include <vector>

namespace jinfer {
namespace sat {

bool SatisfiableByEnumeration(const Cnf& cnf) {
  JINFER_CHECK(cnf.num_vars() <= 24, "enumeration oracle limited to 24 vars");
  size_t n = static_cast<size_t>(cnf.num_vars());
  std::vector<bool> assignment(n + 1, false);
  for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
    for (size_t v = 1; v <= n; ++v) assignment[v] = (bits >> (v - 1)) & 1;
    if (cnf.IsSatisfiedBy(assignment)) return true;
  }
  return false;
}

}  // namespace sat
}  // namespace jinfer
