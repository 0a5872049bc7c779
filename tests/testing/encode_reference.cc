#include "testing/encode_reference.h"

#include <limits>
#include <unordered_map>

#include "relational/value.h"

namespace jinfer {
namespace core {

namespace {

/// The row-major reference dictionary retained from the pre-columnar seed:
/// encodes every cell through a Value-keyed hash map. Equal non-null values
/// get equal codes; every NULL gets a fresh code (NULL never matches
/// anything, per rel::Value semantics). EncodeInstance (the production
/// columnar remap) reproduces its code assignment bit-for-bit.
///
/// Invariant: NULL codes and non-null codes are drawn from disjoint ranges —
/// non-null codes ascend from 0, NULL codes descend from UINT32_MAX — so a
/// NULL code can never collide with any past or *future* non-null code. (A
/// single shared counter is only collision-free while every consumer
/// increments it; the split ranges make the guarantee structural and survive
/// interleaved NULL/non-NULL encodes in any order.)
struct ReferenceDictionary {
  std::unordered_map<rel::Value, uint32_t, rel::ValueHash> codes;
  uint32_t next_code = 0;
  uint32_t next_null_code = std::numeric_limits<uint32_t>::max();

  uint32_t Encode(const rel::Value& v) {
    JINFER_CHECK(next_code < next_null_code,
                 "dictionary code space exhausted");
    if (v.is_null()) return next_null_code--;
    auto [it, inserted] = codes.try_emplace(v, next_code);
    if (inserted) ++next_code;
    return it->second;
  }

  /// Flat row-major encoding: row i occupies [i*width, (i+1)*width). The
  /// flat layout is what the persistent store serializes (and maps back)
  /// verbatim.
  std::vector<uint32_t> EncodeRows(const std::vector<rel::Row>& rows) {
    std::vector<uint32_t> out;
    out.reserve(rows.size() * (rows.empty() ? 0 : rows.front().size()));
    for (const rel::Row& row : rows) {
      for (const auto& v : row) out.push_back(Encode(v));
    }
    return out;
  }
};

}  // namespace

EncodedInstance EncodeInstanceReference(const std::vector<rel::Row>& r_rows,
                                        const std::vector<rel::Row>& p_rows) {
  ReferenceDictionary dict;
  EncodedInstance encoded;
  encoded.r_codes = dict.EncodeRows(r_rows);
  encoded.p_codes = dict.EncodeRows(p_rows);
  return encoded;
}

util::Result<SignatureIndex> BuildReferenceRowMajor(
    const rel::Schema& r_schema, const std::vector<rel::Row>& r_rows,
    const rel::Schema& p_schema, const std::vector<rel::Row>& p_rows,
    const SignatureIndexOptions& options) {
  if (r_rows.empty() || p_rows.empty()) {
    return util::Status::InvalidArgument(
        "SignatureIndex requires non-empty instances of both relations");
  }
  JINFER_ASSIGN_OR_RETURN(Omega omega, Omega::Make(r_schema, p_schema));
  return SignatureIndex::BuildFromEncoded(
      std::move(omega), EncodeInstanceReference(r_rows, p_rows), options);
}

}  // namespace core
}  // namespace jinfer
