#include "rdb/schema.h"

namespace rdb {

std::optional<std::size_t> TableSchema::FindColumn(std::string_view column_name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column_name) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> TableSchema::AutoIncrementColumn() const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].auto_increment) return i;
  }
  return std::nullopt;
}

rlscommon::Status TableSchema::ValidateRow(const Row& row) const {
  using rlscommon::Status;
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " + std::to_string(columns_.size()) +
                                   " for table " + name_);
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = columns_[i];
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("NULL in NOT NULL column " + col.name);
      }
      continue;
    }
    if (!v.TypeMatches(col.type)) {
      return Status::InvalidArgument("type mismatch for column " + col.name +
                                     ": got " + v.ToString());
    }
    if (col.type == ColumnType::kVarchar && col.max_length > 0 &&
        v.AsString().size() > col.max_length) {
      return Status::InvalidArgument("value too long for " + col.name + "(" +
                                     std::to_string(col.max_length) + ")");
    }
  }
  return Status::Ok();
}

void EncodeRow(const Row& row, std::string* out) {
  for (const Value& v : row) v.Encode(out);
}

rlscommon::Status DecodeRow(std::string_view data, std::size_t num_columns, Row* out) {
  out->clear();
  out->reserve(num_columns);
  for (std::size_t i = 0; i < num_columns; ++i) {
    Value v;
    auto status = Value::Decode(&data, &v);
    if (!status.ok()) return status;
    out->push_back(std::move(v));
  }
  if (!data.empty()) return rlscommon::Status::Protocol("trailing bytes after row");
  return rlscommon::Status::Ok();
}

bool EncodedColumnEquals(std::string_view data, std::size_t column, const Value& key) {
  for (std::size_t i = 0; i < column; ++i) {
    if (!Value::SkipEncoded(&data)) return false;
  }
  return key.EqualsEncoded(data);
}

}  // namespace rdb
