// ColumnTable: columnar, dictionary-encoded storage for relations — the
// substrate every layer above src/relational/ ultimately consumes.
//
// Layout per column (DESIGN.md §9):
//   * a uint32_t code vector, one local dictionary code per row (NULL cells
//     hold kNullCellCode so a stale read can never alias a real entry);
//   * a ColumnDictionary interning each distinct non-null value once, with
//     string payloads in one flat arena per dictionary (no per-cell
//     std::string, no pointer chasing on scans);
//   * a null bitmap (bit i set = row i is NULL in this column). NULLs are
//     deliberately *not* interned: per the bottom-value rule in value.h two
//     NULLs must never compare equal, so they carry no dictionary entry.
//     Scan-order consumers (the SignatureIndex encode, the join keys) spot
//     NULL cells by the kNullCellCode sentinel inline in the code stream;
//     the bitmap is the word-at-a-time surface — random-access IsNull,
//     has-any-nulls skips, and future vectorized sweeps.
//
// Ingest is streaming and cursor-based: a producer appends the cells of one
// row left to right (AppendInt/AppendString/AppendNull/..., or AppendCode
// against a pre-seeded dictionary) and seals it with FinishRow(); a row is
// visible only once finished, and a half-appended row fails loudly. The CSV
// reader and the workload generators write straight into this interface —
// no intermediate Row vector, no per-cell Value temporaries.
//
// Content stamp: content_stamp() names the table's current contents with a
// process-unique non-zero number, drawn lazily from one global counter on
// the first read. FinishRow, the one place a row becomes visible, clears
// it, and a copy, move or assignment starts unstamped (a move clears its
// source too), so two contents never share a stamp. IndexCache keys its
// memo of fingerprints by it (DESIGN.md §7, §9).
//
// Dictionary interning details: ints by value, strings by bytes, doubles by
// bit pattern — which keeps +0.0 and -0.0 distinct, as the row-major
// reference's bit-pattern hashing already did in practice. NaN doubles are
// never interned at all: NaN equals nothing, so every NaN cell gets a fresh
// code per occurrence (like a bottom value with a payload), reproducing the
// reference dictionary bit-for-bit. CellView equality (read path) follows
// rel::Value exactly, IEEE semantics included.

#ifndef JINFER_RELATIONAL_COLUMN_TABLE_H_
#define JINFER_RELATIONAL_COLUMN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relational/value.h"
#include "util/check.h"

namespace jinfer {
namespace rel {

/// Code stored in a column's code vector at NULL cells. Never a valid
/// dictionary code: interning checks against the ceiling long before.
inline constexpr uint32_t kNullCellCode = 0xFFFFFFFFu;

/// Interns the distinct non-null values of one column (or, for the
/// SignatureIndex encode, of a whole instance). Codes are dense and
/// assigned in first-intern order; string payloads live in one flat arena.
class ColumnDictionary {
 public:
  uint32_t EncodeInt(int64_t v) { return Intern(ValueType::kInt, v, {}); }
  uint32_t EncodeDouble(double v);
  uint32_t EncodeString(std::string_view s) {
    return Intern(ValueType::kString, 0, s);
  }
  /// Dispatches on the runtime type; `v` must not be NULL.
  uint32_t EncodeValue(const Value& v);
  /// Interns the viewed value; `v` must not be NULL.
  uint32_t EncodeView(const CellView& v);

  /// Pre-seeds an empty dictionary with the dense integer domain
  /// {0, ..., n-1}, making code == value — generators then emit codes
  /// straight into the column via ColumnTable::AppendCode with no hashing.
  void SeedDenseIntDomain(int64_t n);

  size_t size() const { return types_.size(); }
  ValueType type(uint32_t code) const { return types_[code]; }

  /// Decoded non-owning view of an entry (string payloads alias the arena,
  /// valid while the dictionary lives and is not appended to).
  CellView view(uint32_t code) const;
  Value ToValue(uint32_t code) const { return view(code).ToValue(); }

  /// Hash of the entry's value, consistent with rel::Value::Hash. Cached at
  /// intern time, so per-row consumers (join keys, the global merge) never
  /// rehash string payloads.
  uint64_t value_hash(uint32_t code) const { return hashes_[code]; }

 private:
  /// num carries the int payload or the double bit pattern; str the string
  /// payload. Returns the existing code for an already-interned value —
  /// except NaN doubles, which are appended fresh per occurrence (NaN
  /// equals nothing, so no two NaN cells may share a code; matches the
  /// row-major reference dictionary bit-for-bit).
  uint32_t Intern(ValueType type, int64_t num, std::string_view str);
  /// Unconditionally appends an entry (the shared tail of Intern).
  uint32_t AppendEntry(ValueType type, int64_t num, std::string_view str,
                       uint64_t hash);
  bool EntryEquals(uint32_t code, ValueType type, int64_t num,
                   std::string_view str) const;

  std::vector<ValueType> types_;
  std::vector<int64_t> nums_;     // int payload / double bits / arena offset
  std::vector<uint32_t> lens_;    // string byte length (0 for non-strings)
  std::vector<uint64_t> hashes_;  // value_hash(), cached
  std::string arena_;             // flat string payload storage

  // Lookup: value hash -> code, with genuine 64-bit collisions spilling to
  // a linear-scanned overflow list (payloads are always verified, so two
  // distinct values never share a code).
  std::unordered_map<uint64_t, uint32_t> by_hash_;
  std::vector<uint32_t> overflow_;
};

class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(size_t num_columns) : columns_(num_columns) {}

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  // --- Streaming ingest -------------------------------------------------
  // Each Append* encodes the cell at the cursor column of the in-progress
  // row and advances the cursor; FinishRow checks every column got exactly
  // one cell and publishes the row.

  void AppendNull();
  void AppendInt(int64_t v) { AppendEncoded(Cur().dict.EncodeInt(v)); }
  void AppendDouble(double v) { AppendEncoded(Cur().dict.EncodeDouble(v)); }
  void AppendString(std::string_view s) {
    AppendEncoded(Cur().dict.EncodeString(s));
  }
  /// Dispatches on the runtime type (NULL included).
  void AppendValue(const Value& v);
  /// Fast path against a pre-seeded dictionary (SeedDenseIntDomain):
  /// appends an existing dictionary code without touching the value layer.
  void AppendCode(uint32_t code) {
    JINFER_CHECK(code < Cur().dict.size(),
                 "AppendCode(%u) outside dictionary of %zu entries", code,
                 Cur().dict.size());
    AppendEncoded(code);
  }
  void FinishRow() {
    JINFER_CHECK(cursor_ == columns_.size(),
                 "FinishRow after %zu of %zu cells", cursor_, columns_.size());
    cursor_ = 0;
    ++num_rows_;
    stamp_.Clear();
  }
  /// Column the next Append* lands in (error reporting in parsers).
  size_t cursor() const { return cursor_; }

  /// Process-unique, non-zero name of the finished rows' contents (see the
  /// header comment). Stable until the next FinishRow; concurrent const
  /// readers of an unstamped table all get the same value.
  uint64_t content_stamp() const { return stamp_.Get(); }

  // --- Reads ------------------------------------------------------------

  bool IsNull(size_t row, size_t col) const {
    const Column& c = columns_[col];
    return (c.null_words[row >> 6] >> (row & 63)) & 1;
  }
  /// Decoded non-owning view of a cell.
  CellView cell(size_t row, size_t col) const {
    const Column& c = columns_[col];
    uint32_t code = c.codes[row];
    if (code == kNullCellCode) return CellView{};
    return c.dict.view(code);
  }
  /// Owning decode (display paths; allocates for strings).
  Value ValueAt(size_t row, size_t col) const { return cell(row, col).ToValue(); }

  ColumnDictionary& dictionary(size_t col) { return columns_[col].dict; }
  const ColumnDictionary& dictionary(size_t col) const {
    return columns_[col].dict;
  }
  /// Local dictionary codes of a column, one per row (kNullCellCode at
  /// NULL cells).
  std::span<const uint32_t> codes(size_t col) const {
    return columns_[col].codes;
  }
  /// Null bitmap words of a column ((num_rows + 63) / 64 words).
  std::span<const uint64_t> null_words(size_t col) const {
    return columns_[col].null_words;
  }
  bool column_has_nulls(size_t col) const {
    return columns_[col].null_count > 0;
  }

 private:
  struct Column {
    ColumnDictionary dict;
    std::vector<uint32_t> codes;
    std::vector<uint64_t> null_words;
    uint64_t null_count = 0;
  };

  Column& Cur() {
    JINFER_CHECK(cursor_ < columns_.size(), "cell append beyond arity %zu",
                 columns_.size());
    return columns_[cursor_];
  }
  void AppendEncoded(uint32_t code) {
    Column& c = columns_[cursor_];
    if ((num_rows_ & 63) == 0) c.null_words.push_back(0);
    c.codes.push_back(code);
    ++cursor_;
  }

  /// The content stamp: copying, moving or assigning it yields an
  /// unstamped cell, and a move clears its source as well.
  class Stamp {
   public:
    Stamp() = default;
    Stamp(const Stamp&) noexcept {}
    Stamp(Stamp&& source) noexcept { source.Clear(); }
    Stamp& operator=(const Stamp&) noexcept {
      Clear();
      return *this;
    }
    Stamp& operator=(Stamp&& source) noexcept {
      Clear();
      source.Clear();
      return *this;
    }
    uint64_t Get() const;
    void Clear() { value_.store(0, std::memory_order_relaxed); }

   private:
    mutable std::atomic<uint64_t> value_{0};  ///< 0 = unstamped.
  };

  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  size_t cursor_ = 0;
  Stamp stamp_;
};

}  // namespace rel
}  // namespace jinfer

#endif  // JINFER_RELATIONAL_COLUMN_TABLE_H_
