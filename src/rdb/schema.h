// Table schemas and rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "rdb/value.h"

namespace rdb {

/// A row is a vector of values ordered by column position.
using Row = std::vector<Value>;

/// Column definition.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt;
  bool nullable = true;
  bool auto_increment = false;  // only valid on INT columns
  uint32_t max_length = 0;      // VARCHAR length cap, 0 = unlimited
};

/// Table schema: column list plus declared unique constraints (enforced
/// through unique indexes created by the catalog).
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<ColumnDef> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  std::size_t num_columns() const { return columns_.size(); }

  /// Index of a column by name, or nullopt.
  std::optional<std::size_t> FindColumn(std::string_view column_name) const;

  /// Index of the auto-increment column, if any.
  std::optional<std::size_t> AutoIncrementColumn() const;

  /// Validates a full row against the schema (arity, types, NOT NULL,
  /// VARCHAR length).
  rlscommon::Status ValidateRow(const Row& row) const;

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
};

/// Serializes a row with the compact value encoding (page payload).
void EncodeRow(const Row& row, std::string* out);
rlscommon::Status DecodeRow(std::string_view data, std::size_t num_columns, Row* out);

/// True if column `column` of the encoded row `data` equals `key`
/// (Value::Compare semantics), read in place: the hash index's probe
/// compares keys this way, without decoding the row or allocating.
/// Truncated or malformed bytes read as no match.
bool EncodedColumnEquals(std::string_view data, std::size_t column, const Value& key);

}  // namespace rdb
