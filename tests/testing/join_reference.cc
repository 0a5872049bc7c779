#include "testing/join_reference.h"

namespace jinfer {
namespace rel {

util::Result<std::vector<std::pair<size_t, size_t>>> EquijoinIndicesNaive(
    const Relation& r, const Relation& p, const std::vector<AttrPair>& theta) {
  JINFER_RETURN_NOT_OK(ValidateTheta(r, p, theta));
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < r.num_rows(); ++i) {
    for (size_t j = 0; j < p.num_rows(); ++j) {
      bool all = true;
      for (const auto& [a, b] : theta) {
        if (r.cell(i, a) != p.cell(j, b)) {
          all = false;
          break;
        }
      }
      if (all) out.emplace_back(i, j);
    }
  }
  return out;
}

}  // namespace rel
}  // namespace jinfer
