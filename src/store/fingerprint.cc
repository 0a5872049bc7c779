#include "store/fingerprint.h"

#include <cstring>

#include "util/bitset.h"
#include "util/string_util.h"

namespace jinfer {
namespace store {

namespace {

/// Two independently-mixed 64-bit lanes absorbed in lockstep. Each lane is
/// a chained util::Mix64 with a lane-distinct tweak, so the pair behaves as
/// one 128-bit digest: collapsing it would bring the collision probability
/// for distinct instances into birthday range for large catalogs.
class Hasher128 {
 public:
  void Absorb(uint64_t x) {
    hi_ = util::Mix64(hi_ + x);
    lo_ = util::Mix64(lo_ ^ (x * 0xc2b2ae3d27d4eb4fULL));
  }

  void AbsorbBytes(const void* data, size_t len) {
    Absorb(len);
    const unsigned char* p = static_cast<const unsigned char*>(data);
    while (len >= 8) {
      uint64_t word;
      std::memcpy(&word, p, 8);
      Absorb(word);
      p += 8;
      len -= 8;
    }
    if (len > 0) {
      uint64_t word = 0;
      std::memcpy(&word, p, len);
      Absorb(word);
    }
  }

  void AbsorbString(std::string_view s) { AbsorbBytes(s.data(), s.size()); }

  /// Domain-separated type tags (the rel::ValueType enumerator values —
  /// 'N'/'I'/'D'/'S') keep e.g. the int 1 and the string "\x01" from
  /// colliding. Reads a decoded cell view, so the columnar walk below
  /// absorbs exactly the byte stream the original row-major cell walk did.
  void AbsorbCell(const rel::CellView& cell) {
    Absorb(static_cast<uint64_t>(cell.type));
    switch (cell.type) {
      case rel::ValueType::kNull:
        break;
      case rel::ValueType::kInt:
      case rel::ValueType::kDouble:
        Absorb(static_cast<uint64_t>(cell.num));
        break;
      case rel::ValueType::kString:
        AbsorbString(cell.str);
        break;
    }
  }

  /// Cells are absorbed in row-major order through the column dictionaries
  /// (two array reads per cell, no Value temporaries, no variant dispatch).
  /// The byte stream is identical to the pre-columnar cell-by-cell digest —
  /// the compatibility decision DESIGN.md §9 documents and
  /// tests/store/fingerprint_compat_test.cc pins against golden seed
  /// values, which is what keeps pre-refactor .jidx files addressable.
  void AbsorbRelation(const rel::Relation& rel) {
    AbsorbString(rel.schema().relation_name());
    Absorb(rel.num_attributes());
    for (const std::string& attr : rel.schema().attribute_names()) {
      AbsorbString(attr);
    }
    Absorb(rel.num_rows());
    const rel::ColumnTable& t = rel.columns();
    for (size_t row = 0; row < t.num_rows(); ++row) {
      for (size_t col = 0; col < t.num_columns(); ++col) {
        AbsorbCell(t.cell(row, col));
      }
    }
  }

  InstanceFingerprint Finish() const { return {hi_, lo_}; }

 private:
  uint64_t hi_ = 0x243f6a8885a308d3ULL;  // pi digits — nothing-up-my-sleeve.
  uint64_t lo_ = 0x13198a2e03707344ULL;
};

}  // namespace

std::string InstanceFingerprint::ToHex() const {
  return util::StrFormat("%016llx%016llx", static_cast<unsigned long long>(hi),
                         static_cast<unsigned long long>(lo));
}

InstanceFingerprint FingerprintInstance(const rel::Relation& r,
                                        const rel::Relation& p,
                                        bool compress) {
  Hasher128 h;
  h.AbsorbRelation(r);
  h.AbsorbRelation(p);
  h.Absorb(compress ? 1 : 0);
  return h.Finish();
}

InstanceFingerprint FingerprintUpload(std::string_view r_name,
                                      std::string_view r_csv,
                                      std::string_view p_name,
                                      std::string_view p_csv,
                                      bool compress) {
  // An instance digest opens with a relation name's length; no name is
  // this long, so the two domains never share a byte stream.
  constexpr uint64_t kUploadDomain = 0x64616f6c7075ULL;  // "upload" on LE.
  Hasher128 h;
  h.Absorb(kUploadDomain);
  h.AbsorbString(r_name);
  h.AbsorbString(r_csv);
  h.AbsorbString(p_name);
  h.AbsorbString(p_csv);
  h.Absorb(compress ? 1 : 0);
  return h.Finish();
}

}  // namespace store
}  // namespace jinfer
