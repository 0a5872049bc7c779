#include "relational/column_table.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

namespace jinfer {
namespace rel {

namespace {

/// The last stamp drawn, process-wide; stamps are never reused.
std::atomic<uint64_t> g_last_stamp{0};

}  // namespace

uint32_t ColumnDictionary::EncodeDouble(double v) {
  int64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Intern(ValueType::kDouble, bits, {});
}

uint32_t ColumnDictionary::EncodeValue(const Value& v) {
  JINFER_CHECK(!v.is_null(), "NULL has no dictionary entry");
  return EncodeView(CellView::Of(v));
}

uint32_t ColumnDictionary::EncodeView(const CellView& v) {
  switch (v.type) {
    case ValueType::kInt:
      return EncodeInt(v.num);
    case ValueType::kDouble:
      return Intern(ValueType::kDouble, v.num, {});
    case ValueType::kString:
      return EncodeString(v.str);
    case ValueType::kNull:
      break;
  }
  JINFER_CHECK(false, "NULL has no dictionary entry");
  return kNullCellCode;
}

void ColumnDictionary::SeedDenseIntDomain(int64_t n) {
  JINFER_CHECK(size() == 0, "dense seed over a non-empty dictionary");
  JINFER_CHECK(n > 0 && static_cast<uint64_t>(n) < kNullCellCode,
               "dense domain size %lld out of range", static_cast<long long>(n));
  for (int64_t v = 0; v < n; ++v) EncodeInt(v);
}

CellView ColumnDictionary::view(uint32_t code) const {
  CellView out;
  out.type = types_[code];
  if (out.type == ValueType::kString) {
    out.str = std::string_view(arena_.data() + nums_[code], lens_[code]);
  } else {
    out.num = nums_[code];
  }
  return out;
}

bool ColumnDictionary::EntryEquals(uint32_t code, ValueType type, int64_t num,
                                   std::string_view str) const {
  if (types_[code] != type) return false;
  if (type == ValueType::kString) {
    if (lens_[code] != str.size()) return false;
    return str.empty() ||
           std::memcmp(arena_.data() + nums_[code], str.data(), str.size()) ==
               0;
  }
  return nums_[code] == num;  // Ints by value, doubles by bit pattern.
}

uint32_t ColumnDictionary::Intern(ValueType type, int64_t num,
                                  std::string_view str) {
  uint64_t h;
  switch (type) {
    case ValueType::kInt:
      h = HashInt(num);
      break;
    case ValueType::kDouble: {
      double d;
      std::memcpy(&d, &num, sizeof(d));
      h = HashDouble(d);
      if (std::isnan(d)) {
        // NaN never compares equal, so interning it would make two NaN
        // cells share a code — i.e. join each other downstream. The
        // row-major reference dictionary (whose Value(NaN) key equals no
        // stored key) gave every NaN cell a fresh code; reproduce that by
        // appending per occurrence, bypassing the lookup entirely.
        return AppendEntry(type, num, str, h);
      }
      break;
    }
    default:
      h = HashString(str);
      break;
  }

  auto [it, inserted] =
      by_hash_.try_emplace(h, static_cast<uint32_t>(types_.size()));
  if (!inserted) {
    if (EntryEquals(it->second, type, num, str)) return it->second;
    // 64-bit hash collision between distinct values: the primary slot is
    // taken, so this (and any further) same-hash value lives in the
    // overflow list. Astronomically rare; correctness must not depend on
    // it being impossible.
    for (uint32_t code : overflow_) {
      if (hashes_[code] == h && EntryEquals(code, type, num, str)) {
        return code;
      }
    }
    overflow_.push_back(static_cast<uint32_t>(types_.size()));
  }
  return AppendEntry(type, num, str, h);
}

uint32_t ColumnDictionary::AppendEntry(ValueType type, int64_t num,
                                       std::string_view str, uint64_t hash) {
  const uint32_t code = static_cast<uint32_t>(types_.size());
  JINFER_CHECK(code < kNullCellCode, "dictionary code space exhausted");
  types_.push_back(type);
  if (type == ValueType::kString) {
    nums_.push_back(static_cast<int64_t>(arena_.size()));
    lens_.push_back(static_cast<uint32_t>(str.size()));
    if (!str.empty()) arena_.append(str.data(), str.size());
  } else {
    nums_.push_back(num);
    lens_.push_back(0);
  }
  hashes_.push_back(hash);
  return code;
}

uint64_t ColumnTable::Stamp::Get() const {
  uint64_t stamp = value_.load(std::memory_order_relaxed);
  if (stamp != 0) return stamp;
  const uint64_t drawn =
      g_last_stamp.fetch_add(1, std::memory_order_relaxed) + 1;
  // Racing first readers: one draw wins, the others read it back.
  if (value_.compare_exchange_strong(stamp, drawn,
                                     std::memory_order_relaxed)) {
    return drawn;
  }
  return stamp;
}

void ColumnTable::AppendNull() {
  Column& c = Cur();
  if ((num_rows_ & 63) == 0) c.null_words.push_back(0);
  c.null_words[num_rows_ >> 6] |= uint64_t{1} << (num_rows_ & 63);
  c.codes.push_back(kNullCellCode);
  ++c.null_count;
  ++cursor_;
}

void ColumnTable::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  AppendEncoded(Cur().dict.EncodeValue(v));
}

}  // namespace rel
}  // namespace jinfer
