// Relation: a schema plus columnar, dictionary-encoded storage (ColumnTable).
//
// The inference core never scans Relations directly on the hot path; it
// re-encodes the column dictionaries once into a core::SignatureIndex.
// Relation is the user-facing, CSV-loadable representation — since the
// columnar refactor (DESIGN.md §9) it is a thin row-view facade over a
// ColumnTable: `at`/`row`/`rows` decode on demand for reports and tests,
// while scan-heavy consumers (the index build, the store fingerprint, the
// join helpers) read the codes, dictionaries and null bitmaps directly via
// `columns()`.

#ifndef JINFER_RELATIONAL_RELATION_H_
#define JINFER_RELATIONAL_RELATION_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "relational/column_table.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/result.h"

namespace jinfer {
namespace rel {

using Row = std::vector<Value>;

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), table_(schema_.num_attributes()) {}

  /// Convenience builder for tests and examples:
  ///   Relation::Make("R", {"A1","A2"}, {{0,1},{0,2}});
  /// Fails on schema errors or arity mismatches.
  static util::Result<Relation> Make(
      std::string name, std::vector<std::string> attributes,
      std::vector<Row> rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return table_.num_rows(); }
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// The columnar storage: per-column code vectors, dictionaries and null
  /// bitmaps. The read surface for every scan-heavy consumer.
  const ColumnTable& columns() const { return table_; }
  /// The table's content stamp (ColumnTable::content_stamp): it names the
  /// schema too, which is only ever replaced along with the table.
  uint64_t content_stamp() const { return table_.content_stamp(); }
  /// Streaming-ingest access (CSV reader, workload generators). Producers
  /// must keep the table aligned with the schema arity; the cursor-based
  /// Append*/FinishRow protocol fails loudly if they don't.
  ColumnTable& mutable_columns() { return table_; }

  /// Decoded cell (owning; allocates for strings — report/test paths).
  Value at(size_t row, size_t col) const { return table_.ValueAt(row, col); }
  /// Decoded cell view (non-owning; the cheap read for scans).
  CellView cell(size_t row, size_t col) const { return table_.cell(row, col); }

  /// Materializes row `i`. A decode, not a reference into storage — row-
  /// compatibility facade for reports and row-major consumers.
  Row row(size_t i) const;
  /// Materializes every row (test/compat facade; O(cells) allocation —
  /// production scans use columns() instead).
  std::vector<Row> rows() const;

  /// Appends a row; fails if the arity does not match the schema.
  util::Status AppendRow(Row row) { return AppendRowSpan(row); }
  util::Status AppendRow(std::initializer_list<Value> row) {
    return AppendRowSpan(std::span<const Value>(row.begin(), row.size()));
  }

  /// Pretty-prints the relation as an aligned text table (first `max_rows`
  /// rows; 0 means all).
  std::string ToString(size_t max_rows = 0) const;

  /// Formats row `i` on one line as "Name: attr=value, attr=value" — how
  /// a question presents a tuple to its user (NULL prints as nothing).
  std::string FormatRow(size_t i) const;

 private:
  util::Status AppendRowSpan(std::span<const Value> row);

  Schema schema_;
  ColumnTable table_;
};

}  // namespace rel
}  // namespace jinfer

#endif  // JINFER_RELATIONAL_RELATION_H_
