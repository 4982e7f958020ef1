// Hash functions for Bloom filters.
//
// The paper computes "three hash values for every logical name" (§3.4).
// We derive any number of index hashes from two independent 64-bit hashes
// via the Kirsch–Mitzenmacher double-hashing construction
// g_i(x) = h1(x) + i * h2(x), which preserves the Bloom false-positive
// analysis while hashing the key only once.
#pragma once

#include <cstdint>
#include <string_view>

namespace bloom {

/// 64-bit FNV-1a.
uint64_t Fnv1a64(std::string_view data);

/// 64-bit MurmurHash3-style finalizer-based hash (xxh-like mixing), with
/// a seed so h1/h2 are independent.
uint64_t Mix64(std::string_view data, uint64_t seed);

/// Pair of independent 64-bit hashes of one key.
struct HashPair {
  uint64_t h1;
  uint64_t h2;
};

/// Hashes `key` once; its bit positions come from BitPositions.
HashPair HashKey(std::string_view key);

/// The bit positions of one key in a filter of `num_bits` bits and
/// `num_hashes` hashes, computed on demand: position i is
/// (h1 + i * (h2 | 1)) mod num_bits. Every filter operation reads its
/// positions here, and so does the RLI's probe of many filters. A filter
/// with no bits has no positions (size 0), so it neither divides by zero
/// nor holds a key.
class BitPositions {
 public:
  BitPositions(const HashPair& h, uint64_t num_bits, uint32_t num_hashes)
      : h1_(h.h1), stride_(h.h2 | 1), num_bits_(num_bits), size_(num_bits == 0 ? 0 : num_hashes) {}

  uint32_t size() const { return size_; }

  /// Position `i` < size().
  uint64_t operator[](uint32_t i) const {
    return (h1_ + static_cast<uint64_t>(i) * stride_) % num_bits_;
  }

 private:
  uint64_t h1_;
  // h2 forced odd, so the stride is coprime with power-of-two sizes and
  // never zero for any size.
  uint64_t stride_;
  uint64_t num_bits_;
  uint32_t size_;
};

}  // namespace bloom
