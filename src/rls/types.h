// Core RLS domain types (paper §2–3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "net/codec.h"

namespace rls {

/// A replica mapping: logical name -> target name. Target names are
/// "typically the physical locations of data replicas, but they may also
/// be other logical names representing the data" (paper §2).
struct Mapping {
  std::string logical;
  std::string target;

  NET_WIRE_FIELDS(logical, target)
  bool operator==(const Mapping&) const = default;
};

/// Whether an attribute attaches to logical or target names (the
/// t_attribute.objtype column of Fig. 3).
enum class AttrObject : uint8_t { kLogical = 0, kTarget = 1, kLast = kTarget };

/// Attribute value types — one relational table per type in Fig. 3.
enum class AttrType : uint8_t {
  kString = 0,
  kInt = 1,
  kFloat = 2,
  kDate = 3,
  kLast = kDate,
};

/// A typed attribute value ("typically ... such values as size with a
/// physical name", paper §3.1).
struct AttrValue {
  AttrType type = AttrType::kString;
  std::string string_value;
  int64_t int_value = 0;     // also holds kDate (micros since epoch)
  double float_value = 0.0;

  static AttrValue Str(std::string v) {
    AttrValue a;
    a.type = AttrType::kString;
    a.string_value = std::move(v);
    return a;
  }
  static AttrValue Int(int64_t v) {
    AttrValue a;
    a.type = AttrType::kInt;
    a.int_value = v;
    return a;
  }
  static AttrValue Float(double v) {
    AttrValue a;
    a.type = AttrType::kFloat;
    a.float_value = v;
    return a;
  }
  static AttrValue Date(int64_t micros) {
    AttrValue a;
    a.type = AttrType::kDate;
    a.int_value = micros;
    return a;
  }

  /// Tagged union on the wire: the type byte, then that type's value.
  void Encode(net::Writer* w) const;
  static bool Decode(net::Reader* r, AttrValue* out);
  static constexpr std::size_t kMinWireBytes = 5;  // type + empty string

  std::string ToString() const;
  bool operator==(const AttrValue&) const = default;
};

/// An attribute definition plus (optionally) a value bound to an object.
struct Attribute {
  std::string name;
  AttrObject object = AttrObject::kLogical;
  AttrValue value;

  NET_WIRE_FIELDS(name, object, value)
};

/// Comparison operators for attribute searches (Table 1 "query based on
/// attribute names or values").
enum class AttrCmp : uint8_t {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
  kLast = kGe,
};

/// Per-item outcome of a bulk operation.
struct BulkResult {
  uint32_t index = 0;                 // position in the request
  rlscommon::ErrorCode code = rlscommon::ErrorCode::kOk;

  NET_WIRE_FIELDS(index, code)
};

}  // namespace rls
