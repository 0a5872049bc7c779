#include "relational/join.h"

#include <algorithm>
#include <unordered_map>

#include "util/string_util.h"

namespace jinfer {
namespace rel {

namespace {

/// Composite hash of the theta-projected key of a row; nullopt when any key
/// component is NULL (NULL never joins). Per-value hashes come precomputed
/// from the column dictionaries, so string keys are never rehashed per row.
///
/// Known, deliberately preserved seed quirk: doubles hash by bit pattern,
/// so a -0.0 key never probes +0.0's bucket and the hash join misses that
/// one IEEE-equal pair (the nested-loop reference in
/// tests/testing/join_reference.h, which compares cells directly, finds
/// it). Fixing the hash would break bit-identity with the retained
/// row-major reference, whose Value-keyed dictionaries bucket by the same
/// bit-pattern hash.
std::optional<size_t> KeyHash(const ColumnTable& t, size_t row,
                              const std::vector<size_t>& cols) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t c : cols) {
    uint32_t code = t.codes(c)[row];
    if (code == kNullCellCode) return std::nullopt;
    h = h * 0x100000001b3ULL ^ t.dictionary(c).value_hash(code);
  }
  return h;
}

bool KeysEqual(const ColumnTable& a, size_t arow,
               const std::vector<size_t>& acols, const ColumnTable& b,
               size_t brow, const std::vector<size_t>& bcols) {
  for (size_t k = 0; k < acols.size(); ++k) {
    if (a.cell(arow, acols[k]) != b.cell(brow, bcols[k])) return false;
  }
  return true;
}

}  // namespace

util::Status ValidateTheta(const Relation& r, const Relation& p,
                           const std::vector<AttrPair>& theta) {
  for (const auto& [i, j] : theta) {
    if (i >= r.num_attributes()) {
      return util::Status::OutOfRange(util::StrFormat(
          "theta references attribute %zu of %s (arity %zu)", i,
          r.schema().relation_name().c_str(), r.num_attributes()));
    }
    if (j >= p.num_attributes()) {
      return util::Status::OutOfRange(util::StrFormat(
          "theta references attribute %zu of %s (arity %zu)", j,
          p.schema().relation_name().c_str(), p.num_attributes()));
    }
  }
  return util::Status::OK();
}

util::Result<std::vector<std::pair<size_t, size_t>>> EquijoinIndices(
    const Relation& r, const Relation& p, const std::vector<AttrPair>& theta) {
  JINFER_RETURN_NOT_OK(ValidateTheta(r, p, theta));
  std::vector<std::pair<size_t, size_t>> out;

  if (theta.empty()) {
    out.reserve(r.num_rows() * p.num_rows());
    for (size_t i = 0; i < r.num_rows(); ++i) {
      for (size_t j = 0; j < p.num_rows(); ++j) out.emplace_back(i, j);
    }
    return out;
  }

  std::vector<size_t> rcols, pcols;
  for (const auto& [i, j] : theta) {
    rcols.push_back(i);
    pcols.push_back(j);
  }

  // Build side: hash P rows on the theta key.
  std::unordered_multimap<size_t, size_t> table;
  table.reserve(p.num_rows());
  for (size_t j = 0; j < p.num_rows(); ++j) {
    if (auto h = KeyHash(p.columns(), j, pcols)) table.emplace(*h, j);
  }

  for (size_t i = 0; i < r.num_rows(); ++i) {
    auto h = KeyHash(r.columns(), i, rcols);
    if (!h) continue;
    auto [begin, end] = table.equal_range(*h);
    for (auto it = begin; it != end; ++it) {
      if (KeysEqual(r.columns(), i, rcols, p.columns(), it->second, pcols)) {
        out.emplace_back(i, it->second);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<std::vector<size_t>> SemijoinIndices(
    const Relation& r, const Relation& p, const std::vector<AttrPair>& theta) {
  JINFER_RETURN_NOT_OK(ValidateTheta(r, p, theta));
  std::vector<size_t> out;

  if (theta.empty()) {
    // R ⋉∅ P = R when P has a witness tuple, else ∅.
    if (p.num_rows() > 0) {
      out.resize(r.num_rows());
      for (size_t i = 0; i < r.num_rows(); ++i) out[i] = i;
    }
    return out;
  }

  std::vector<size_t> rcols, pcols;
  for (const auto& [i, j] : theta) {
    rcols.push_back(i);
    pcols.push_back(j);
  }
  std::unordered_multimap<size_t, size_t> table;
  table.reserve(p.num_rows());
  for (size_t j = 0; j < p.num_rows(); ++j) {
    if (auto h = KeyHash(p.columns(), j, pcols)) table.emplace(*h, j);
  }
  for (size_t i = 0; i < r.num_rows(); ++i) {
    auto h = KeyHash(r.columns(), i, rcols);
    if (!h) continue;
    auto [begin, end] = table.equal_range(*h);
    for (auto it = begin; it != end; ++it) {
      if (KeysEqual(r.columns(), i, rcols, p.columns(), it->second, pcols)) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

namespace {

util::Result<Schema> CombinedSchema(const Relation& r, const Relation& p,
                                    const std::string& name) {
  std::vector<std::string> attrs;
  for (const auto& a : r.schema().attribute_names()) {
    attrs.push_back(r.schema().relation_name() + "." + a);
  }
  for (const auto& b : p.schema().attribute_names()) {
    attrs.push_back(p.schema().relation_name() + "." + b);
  }
  return Schema::Make(name, std::move(attrs));
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

util::Result<Relation> EquijoinRelation(const Relation& r, const Relation& p,
                                        const std::vector<AttrPair>& theta,
                                        const std::string& name) {
  JINFER_ASSIGN_OR_RETURN(Schema schema, CombinedSchema(r, p, name));
  JINFER_ASSIGN_OR_RETURN(auto idx, EquijoinIndices(r, p, theta));
  Relation out(std::move(schema));
  for (const auto& [i, j] : idx) {
    JINFER_RETURN_NOT_OK(out.AppendRow(ConcatRows(r.row(i), p.row(j))));
  }
  return out;
}

}  // namespace rel
}  // namespace jinfer
