// Field-list message codec. A wire type lists its fields once, in wire
// order, and this header derives its encoding, its decoding and its
// shortest encoding from that list:
//
//   struct NameQueryRequest {
//     std::string name;
//     uint32_t offset = 0;
//     uint32_t limit = 0;
//     NET_WIRE_MESSAGE(NameQueryRequest, name, offset, limit)
//   };
//
// Type rules (the bytes match the serialize.h primitives):
//   integers, double   fixed width, little-endian
//   bool, enums        one byte; an enum decodes only up to E::kLast,
//                      its one declared maximum
//   std::string        u32 length, then the bytes
//   std::vector<T>     u32 count, then the elements; a count whose
//                      elements cannot fit in the remaining bytes (count
//                      x T's shortest encoding) fails before allocating
//   field-list types   their fields, inline
//   own codecs         a type with `void Encode(Writer*) const`,
//                      `static bool Decode(Reader*, T*)` and
//                      `kMinWireBytes` (its shortest encoding)
// Decoding ignores trailing bytes.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/serialize.h"

/// Declares a nested wire type's fields, in wire order.
#define NET_WIRE_FIELDS(...)                                \
  auto WireFields() { return std::tie(__VA_ARGS__); }       \
  auto WireFields() const { return std::tie(__VA_ARGS__); }

/// Declares a message's fields, in wire order, and derives its codec:
/// `Encode` appends the message to a payload; `Decode` parses one and
/// returns PROTOCOL on malformed input.
#define NET_WIRE_MESSAGE(Self, ...)                                           \
  NET_WIRE_FIELDS(__VA_ARGS__)                                                \
  void Encode(std::string* out) const { ::net::EncodeMessage(*this, out); }   \
  static ::rlscommon::Status Decode(std::string_view data, Self* out) {       \
    return ::net::DecodeMessage(data, out);                                   \
  }

namespace net {
namespace codec_detail {

template <typename T>
concept OwnCodec = requires(const T& value, Writer* w, Reader* r, T* out) {
  value.Encode(w);
  { T::Decode(r, out) } -> std::same_as<bool>;
  { T::kMinWireBytes } -> std::convertible_to<std::size_t>;
};

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
constexpr std::size_t MinBytes();

template <typename Fields>
inline constexpr std::size_t kFieldsMinBytes = 0;
template <typename... Fields>
inline constexpr std::size_t kFieldsMinBytes<std::tuple<Fields...>> =
    (std::size_t{0} + ... + MinBytes<std::remove_cvref_t<Fields>>());

/// The fewest bytes any value of T encodes to.
template <typename T>
constexpr std::size_t MinBytes() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string> || kIsVector<T>) {
    return 4;
  } else if constexpr (OwnCodec<T>) {
    return T::kMinWireBytes;
  } else {
    return kFieldsMinBytes<decltype(std::declval<T&>().WireFields())>;
  }
}

template <typename T>
void EncodeValue(Writer& w, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    w.U8(value ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    w.U8(static_cast<uint8_t>(value));
  } else if constexpr (std::is_arithmetic_v<T>) {
    w.Fixed(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.Str(value);
  } else if constexpr (kIsVector<T>) {
    w.U32(static_cast<uint32_t>(value.size()));
    for (const auto& element : value) EncodeValue(w, element);
  } else if constexpr (OwnCodec<T>) {
    value.Encode(&w);
  } else {
    std::apply([&w](const auto&... fields) { (EncodeValue(w, fields), ...); },
               value.WireFields());
  }
}

template <typename T>
bool DecodeValue(Reader& r, T* value) {
  if constexpr (std::is_same_v<T, bool>) {
    uint8_t byte = 0;
    if (!r.U8(&byte)) return false;
    *value = byte != 0;
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(static_cast<uint64_t>(T::kLast) <= UINT8_MAX);
    uint8_t byte = 0;
    if (!r.U8(&byte) || byte > static_cast<uint8_t>(T::kLast)) return false;
    *value = static_cast<T>(byte);
    return true;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return r.Fixed(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r.Str(value);
  } else if constexpr (kIsVector<T>) {
    constexpr std::size_t kElementBytes = MinBytes<typename T::value_type>();
    static_assert(kElementBytes > 0, "a vector element must take wire bytes");
    uint32_t count = 0;
    if (!r.U32(&count) || uint64_t{count} * kElementBytes > r.remaining()) {
      return false;
    }
    value->clear();
    value->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!DecodeValue(r, &value->emplace_back())) return false;
    }
    return true;
  } else if constexpr (OwnCodec<T>) {
    return T::Decode(&r, value);
  } else {
    return std::apply(
        [&r](auto&... fields) { return (DecodeValue(r, &fields) && ...); },
        value->WireFields());
  }
}

}  // namespace codec_detail

/// Appends `message`'s encoding to `out`.
template <typename T>
void EncodeMessage(const T& message, std::string* out) {
  Writer w(out);
  codec_detail::EncodeValue(w, message);
}

/// Parses `data` into `out`; PROTOCOL if it is truncated or malformed.
template <typename T>
rlscommon::Status DecodeMessage(std::string_view data, T* out) {
  Reader r(data);
  if (!codec_detail::DecodeValue(r, out)) {
    return rlscommon::Status::Protocol("truncated or malformed message");
  }
  return rlscommon::Status::Ok();
}

}  // namespace net
