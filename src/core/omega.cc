#include "core/omega.h"

#include <sstream>

#include "util/string_util.h"

namespace jinfer {
namespace core {

util::Result<Omega> Omega::Make(const rel::Schema& r, const rel::Schema& p) {
  size_t n = r.num_attributes();
  size_t m = p.num_attributes();
  if (n == 0 || m == 0) {
    return util::Status::InvalidArgument("schemas must be non-empty");
  }
  if (n * m > util::SmallBitset::kMaxBits) {
    // The cap comes from the persistent class-table format, which embeds
    // each signature as a fixed four-word SmallBitset. The in-memory
    // kernels rely on it too: the sweeps are instantiated at 1..4 words
    // only, so lifting this limit takes a store-format rev *and* wider
    // kernels.
    return util::Status::CapacityExceeded(util::StrFormat(
        "|Omega| = %zu * %zu = %zu exceeds the %zu-atom capacity pinned by "
        "the store format (signatures are fixed four-word bitsets on disk); "
        "larger universes need a store-format rev of SignatureClass",
        n, m, n * m, util::SmallBitset::kMaxBits));
  }
  Omega o;
  o.num_r_attrs_ = n;
  o.num_p_attrs_ = m;
  o.r_relation_ = r.relation_name();
  o.p_relation_ = p.relation_name();
  o.r_names_ = r.attribute_names();
  o.p_names_ = p.attribute_names();
  return o;
}

JoinPredicate Omega::PredicateFromPairs(
    const std::vector<std::pair<size_t, size_t>>& pairs) const {
  JoinPredicate theta;
  for (const auto& [i, j] : pairs) theta.Set(BitOf(i, j));
  return theta;
}

util::Result<JoinPredicate> Omega::PredicateFromNames(
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
  JoinPredicate theta;
  for (const auto& [a, b] : pairs) {
    size_t i = num_r_attrs_, j = num_p_attrs_;
    for (size_t k = 0; k < num_r_attrs_; ++k) {
      if (r_names_[k] == a) i = k;
    }
    for (size_t k = 0; k < num_p_attrs_; ++k) {
      if (p_names_[k] == b) j = k;
    }
    if (i == num_r_attrs_) {
      return util::Status::NotFound("no attribute named " + a + " in " +
                                    r_relation_);
    }
    if (j == num_p_attrs_) {
      return util::Status::NotFound("no attribute named " + b + " in " +
                                    p_relation_);
    }
    theta.Set(BitOf(i, j));
  }
  return theta;
}

std::vector<std::pair<size_t, size_t>> Omega::PairsOf(
    const JoinPredicate& theta) const {
  std::vector<std::pair<size_t, size_t>> out;
  theta.ForEachSetBit([&](size_t bit) { out.push_back(PairOf(bit)); });
  return out;
}

std::vector<rel::AttrPair> Omega::ToAttrPairs(
    const JoinPredicate& theta) const {
  std::vector<rel::AttrPair> out;
  theta.ForEachSetBit([&](size_t bit) { out.push_back(PairOf(bit)); });
  return out;
}

std::string Omega::Format(const JoinPredicate& theta) const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  theta.ForEachSetBit([&](size_t bit) {
    auto [i, j] = PairOf(bit);
    if (!first) os << ',';
    os << '(' << r_names_[i] << ',' << p_names_[j] << ')';
    first = false;
  });
  os << '}';
  return os.str();
}

}  // namespace core
}  // namespace jinfer
