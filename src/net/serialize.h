// Binary wire primitives: little-endian fixed-width integers and
// length-prefixed strings. The frame and error codecs use them directly;
// the RLS messages use them through the field-list codec (net/codec.h).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace net {

/// Append-only writer over a std::string buffer.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Fixed(v); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void I64(int64_t v) { Fixed(v); }
  void F64(double v) { Fixed(v); }

  /// Any integer or double at its own width.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void Fixed(T v) {
    out_->append(reinterpret_cast<const char*>(&v), sizeof v);
  }

  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }

  /// Raw bytes without a length prefix (caller frames them).
  void Raw(std::string_view s) { out_->append(s); }

 private:
  std::string* out_;
};

/// Cursor-based reader; every method returns false on underflow and the
/// caller turns that into a PROTOCOL status.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) { return Fixed(v); }
  bool U16(uint16_t* v) { return Fixed(v); }
  bool U32(uint32_t* v) { return Fixed(v); }
  bool U64(uint64_t* v) { return Fixed(v); }
  bool I64(int64_t* v) { return Fixed(v); }
  bool F64(double* v) { return Fixed(v); }

  /// Any integer or double at its own width.
  template <typename T>
    requires std::is_arithmetic_v<T>
  bool Fixed(T* v) {
    if (data_.size() < sizeof(T)) return false;
    std::memcpy(v, data_.data(), sizeof(T));
    data_.remove_prefix(sizeof(T));
    return true;
  }

  bool Str(std::string* out) {
    uint32_t len;
    if (!U32(&len) || data_.size() < len) return false;
    out->assign(data_.substr(0, len));
    data_.remove_prefix(len);
    return true;
  }

  /// All remaining bytes.
  std::string_view Rest() const { return data_; }
  void Skip(std::size_t n) { data_.remove_prefix(n < data_.size() ? n : data_.size()); }

  bool AtEnd() const { return data_.empty(); }
  std::size_t remaining() const { return data_.size(); }

 private:
  std::string_view data_;
};

}  // namespace net
