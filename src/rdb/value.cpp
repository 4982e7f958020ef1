#include "rdb/value.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "bloom/hashing.h"

namespace rdb {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt: return "INT";
    case ColumnType::kDouble: return "DOUBLE";
    case ColumnType::kVarchar: return "VARCHAR";
    case ColumnType::kTimestamp: return "TIMESTAMP";
  }
  return "?";
}

double Value::NumericValue() const {
  if (std::holds_alternative<int64_t>(data_)) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  if (std::holds_alternative<double>(data_)) return std::get<double>(data_);
  return 0.0;
}

bool Value::TypeMatches(ColumnType type) const {
  if (is_null()) return true;
  switch (type) {
    case ColumnType::kInt:
    case ColumnType::kTimestamp:
      return std::holds_alternative<int64_t>(data_);
    case ColumnType::kDouble:
      return std::holds_alternative<double>(data_) ||
             std::holds_alternative<int64_t>(data_);
    case ColumnType::kVarchar:
      return std::holds_alternative<std::string>(data_);
  }
  return false;
}

int Value::Compare(const Value& other) const {
  const bool lnull = is_null(), rnull = other.is_null();
  if (lnull || rnull) return (lnull ? 0 : 1) - (rnull ? 0 : 1);
  const bool lstr = is_string(), rstr = other.is_string();
  if (lstr != rstr) return lstr ? 1 : -1;  // numbers < strings
  if (lstr) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const double l = NumericValue(), r = other.NumericValue();
  // NaN sorts above every number and equals itself (PostgreSQL's rule),
  // so an ordered index holding one keeps a strict weak order.
  const bool lnan = std::isnan(l), rnan = std::isnan(r);
  if (lnan || rnan) return (lnan ? 1 : 0) - (rnan ? 1 : 0);
  if (l < r) return -1;
  if (l > r) return 1;
  return 0;
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x6e756c6cULL;
  if (is_string()) return bloom::Mix64(AsString(), 0x5472ULL);
  // Hash numerics through their double image so Int(3) == Double(3.0)
  // hash identically (consistent with Compare), -0.0 as 0.0, and every
  // NaN as one image.
  double d = NumericValue();
  if (d == 0) d = 0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  char buf[8];
  std::memcpy(buf, &d, 8);
  return bloom::Mix64(std::string_view(buf, 8), 0x4e554dULL);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_string()) return "'" + AsString() + "'";
  if (is_double()) return std::to_string(AsDouble());
  return std::to_string(AsInt());
}

namespace {

enum Tag : uint8_t { kTagNull = 0, kTagInt = 1, kTagDouble = 2, kTagString = 3, kTagTimestamp = 4 };

/// Splits the encoded value at the front of `*data` into its tag and
/// payload and consumes it; false if it is truncated or malformed.
bool SplitEncoded(std::string_view* data, uint8_t* tag, std::string_view* payload) {
  if (data->empty()) return false;
  *tag = static_cast<uint8_t>((*data)[0]);
  std::string_view rest = data->substr(1);
  std::size_t len = 0;
  switch (*tag) {
    case kTagNull:
      break;
    case kTagInt:
    case kTagTimestamp:
    case kTagDouble:
      len = 8;
      break;
    case kTagString: {
      if (rest.size() < 4) return false;
      uint32_t n = 0;
      std::memcpy(&n, rest.data(), 4);
      rest.remove_prefix(4);
      len = n;
      break;
    }
    default:
      return false;
  }
  if (rest.size() < len) return false;
  *payload = rest.substr(0, len);
  *data = rest.substr(len);
  return true;
}

/// The numeric value of a split int, timestamp or double payload.
Value NumericFromPayload(uint8_t tag, std::string_view payload) {
  if (tag == kTagDouble) {
    double d = 0;
    std::memcpy(&d, payload.data(), 8);
    return Value::Double(d);
  }
  int64_t v = 0;
  std::memcpy(&v, payload.data(), 8);
  return tag == kTagTimestamp ? Value::Timestamp(v) : Value::Int(v);
}

}  // namespace

void Value::Encode(std::string* out) const {
  if (is_null()) {
    out->push_back(static_cast<char>(kTagNull));
  } else if (is_string()) {
    out->push_back(static_cast<char>(kTagString));
    uint32_t len = static_cast<uint32_t>(AsString().size());
    out->append(reinterpret_cast<const char*>(&len), 4);
    out->append(AsString());
  } else if (is_double()) {
    out->push_back(static_cast<char>(kTagDouble));
    double d = AsDouble();
    out->append(reinterpret_cast<const char*>(&d), 8);
  } else {
    out->push_back(static_cast<char>(is_timestamp_ ? kTagTimestamp : kTagInt));
    int64_t v = AsInt();
    out->append(reinterpret_cast<const char*>(&v), 8);
  }
}

rlscommon::Status Value::Decode(std::string_view* data, Value* out) {
  uint8_t tag = 0;
  std::string_view payload;
  if (!SplitEncoded(data, &tag, &payload)) {
    return rlscommon::Status::Protocol("truncated or malformed value");
  }
  if (tag == kTagNull) {
    *out = Value::Null();
  } else if (tag == kTagString) {
    *out = Value::String(std::string(payload));
  } else {
    *out = NumericFromPayload(tag, payload);
  }
  return rlscommon::Status::Ok();
}

bool Value::SkipEncoded(std::string_view* data) {
  uint8_t tag = 0;
  std::string_view payload;
  return SplitEncoded(data, &tag, &payload);
}

bool Value::EqualsEncoded(std::string_view data) const {
  uint8_t tag = 0;
  std::string_view payload;
  if (!SplitEncoded(&data, &tag, &payload)) return false;
  // Compare()'s classes: NULL, strings, and numbers across int/double.
  if (tag == kTagNull || is_null()) return tag == kTagNull && is_null();
  if (tag == kTagString || is_string()) {
    return tag == kTagString && is_string() && payload == AsString();
  }
  return Compare(NumericFromPayload(tag, payload)) == 0;
}

}  // namespace rdb
