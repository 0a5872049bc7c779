#include "relational/relation.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace jinfer {
namespace rel {

util::Result<Relation> Relation::Make(std::string name,
                                      std::vector<std::string> attributes,
                                      std::vector<Row> rows) {
  JINFER_ASSIGN_OR_RETURN(Schema schema,
                          Schema::Make(std::move(name), std::move(attributes)));
  Relation r(std::move(schema));
  for (auto& row : rows) {
    JINFER_RETURN_NOT_OK(r.AppendRow(std::move(row)));
  }
  return r;
}

util::Status Relation::AppendRowSpan(std::span<const Value> row) {
  if (row.size() != schema_.num_attributes()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "row arity %zu does not match schema arity %zu of %s", row.size(),
        schema_.num_attributes(), schema_.relation_name().c_str()));
  }
  for (const Value& v : row) table_.AppendValue(v);
  table_.FinishRow();
  return util::Status::OK();
}

Row Relation::row(size_t i) const {
  Row out;
  out.reserve(num_attributes());
  for (size_t c = 0; c < num_attributes(); ++c) {
    out.push_back(table_.ValueAt(i, c));
  }
  return out;
}

std::vector<Row> Relation::rows() const {
  std::vector<Row> out;
  out.reserve(num_rows());
  for (size_t i = 0; i < num_rows(); ++i) out.push_back(row(i));
  return out;
}

std::string Relation::ToString(size_t max_rows) const {
  size_t limit = max_rows == 0 ? num_rows() : std::min(max_rows, num_rows());
  size_t cols = schema_.num_attributes();

  std::vector<size_t> width(cols);
  for (size_t c = 0; c < cols; ++c) {
    width[c] = schema_.attribute_names()[c].size();
  }
  std::vector<std::vector<std::string>> cells(limit);
  for (size_t r = 0; r < limit; ++r) {
    cells[r].resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      cells[r][c] = table_.ValueAt(r, c).ToString();
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }

  std::ostringstream os;
  os << schema_.relation_name() << " (" << num_rows() << " rows)\n";
  for (size_t c = 0; c < cols; ++c) {
    os << (c ? " | " : "  ")
       << util::PadRight(schema_.attribute_names()[c], width[c]);
  }
  os << '\n';
  for (size_t r = 0; r < limit; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      os << (c ? " | " : "  ") << util::PadRight(cells[r][c], width[c]);
    }
    os << '\n';
  }
  if (limit < num_rows()) {
    os << "  ... (" << num_rows() - limit << " more rows)\n";
  }
  return os.str();
}

std::string Relation::FormatRow(size_t i) const {
  std::string out = schema_.relation_name() + ": ";
  for (size_t c = 0; c < num_attributes(); ++c) {
    if (c) out += ", ";
    out += schema_.attribute_names()[c];
    out += '=';
    out += table_.ValueAt(i, c).ToString();
  }
  return out;
}

}  // namespace rel
}  // namespace jinfer
