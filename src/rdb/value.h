// SQL value type for the rdb storage engine.
//
// The RLS schema (paper Fig. 3) needs: int(11), varchar(250), float,
// timestamp(14). We store INT/TIMESTAMP as int64, FLOAT as double,
// VARCHAR as std::string, plus NULL.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/error.h"

namespace rdb {

/// Column/value types supported by the engine.
enum class ColumnType : uint8_t {
  kInt = 0,        // 64-bit signed (covers the paper's int(11))
  kDouble = 1,     // float attribute values
  kVarchar = 2,    // names, patterns
  kTimestamp = 3,  // microseconds since epoch (timestamp(14))
};

std::string_view ColumnTypeName(ColumnType type);

/// A single SQL value (possibly NULL). Comparison follows SQL semantics
/// except that NULL compares equal to NULL (simplifies index handling;
/// the RLS schema never relies on NULL != NULL).
class Value {
 public:
  Value() : data_(std::monostate{}) {}  // NULL
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Storage(v)); }
  static Value Double(double v) { return Value(Storage(v)); }
  static Value String(std::string v) { return Value(Storage(std::move(v))); }
  static Value Timestamp(int64_t micros) {
    Value v = Int(micros);
    v.is_timestamp_ = true;
    return v;
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_) && !is_timestamp_; }
  bool is_timestamp() const { return std::holds_alternative<int64_t>(data_) && is_timestamp_; }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  /// Accessors; behaviour is undefined if the type does not match
  /// (checked in debug builds via std::get).
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric coercion: ints widen to double.
  double NumericValue() const;

  /// True if this value can be stored in a column of `type`.
  bool TypeMatches(ColumnType type) const;

  /// Total ordering used by indexes and ORDER BY: NULL < numbers < NaN <
  /// strings; numbers compare numerically across int/double (-0.0 equals
  /// 0.0), and every NaN equals every other.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable hash consistent with Compare (equal values hash equally).
  uint64_t Hash() const;

  /// SQL-literal-ish rendering for logs and result dumps.
  std::string ToString() const;

  /// Compact binary encoding used by the page layer.
  void Encode(std::string* out) const;
  static rlscommon::Status Decode(std::string_view* data, Value* out);

  /// In-place readers of that encoding: no decode, no allocation, and
  /// nothing read past `data`. SkipEncoded consumes the value at the
  /// front of `*data`; EqualsEncoded is true if `data` starts with a
  /// value that compares equal to this one. Truncated or malformed bytes
  /// make both return false.
  static bool SkipEncoded(std::string_view* data);
  bool EqualsEncoded(std::string_view data) const;

 private:
  using Storage = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Storage s) : data_(std::move(s)) {}

  Storage data_;
  bool is_timestamp_ = false;
};

}  // namespace rdb
