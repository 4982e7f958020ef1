// Bloom filter (Bloom 1970), as used by the RLS for soft-state update
// compression (paper §3.4).
//
// The paper's parameters: ~10 bits per LRC mapping and 3 hash functions,
// giving a false-positive rate of about 1%. SizeForEntries implements
// that policy. The serialized form (raw bit array + header) is what an
// LRC ships to an RLI in a compressed soft-state update.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/hashing.h"
#include "common/error.h"

namespace bloom {

/// Parameters of a filter.
struct BloomParams {
  uint64_t num_bits = 0;
  uint32_t num_hashes = 3;

  bool operator==(const BloomParams&) const = default;
};

/// Paper policy: 10 bits per expected entry (e.g. 10 Mbit for 1M entries),
/// minimum 1024 bits; 3 hashes.
BloomParams SizeForEntries(uint64_t expected_entries);

/// Expected false-positive rate for `entries` keys inserted into a filter
/// with the given parameters: (1 - e^{-kn/m})^k.
double ExpectedFalsePositiveRate(const BloomParams& params, uint64_t entries);

/// Plain Bloom filter: supports Insert and Contains. Removal is NOT
/// supported (clearing bits could erase other keys); the RLS uses
/// CountingBloomFilter on the LRC side to track deletions and exports a
/// plain bitmap for the wire.
class BloomFilter {
 public:
  BloomFilter() = default;
  explicit BloomFilter(BloomParams params);

  /// Convenience: filter sized for `expected_entries` by the paper policy.
  static BloomFilter ForEntries(uint64_t expected_entries);

  void Insert(std::string_view key);
  void InsertHashed(const HashPair& h);

  /// True if the key may be in the set (false positives possible, false
  /// negatives impossible).
  bool Contains(std::string_view key) const;
  bool ContainsHashed(const HashPair& h) const;

  /// Whether bit `bit` (< num_bits()) is set: the test ContainsHashed
  /// makes at each of a key's BitPositions.
  bool TestBit(uint64_t bit) const { return (words_[bit >> 6] >> (bit & 63)) & 1; }

  /// Number of Insert calls (duplicates counted).
  uint64_t insert_count() const { return insert_count_; }
  uint64_t num_bits() const { return params_.num_bits; }
  uint32_t num_hashes() const { return params_.num_hashes; }
  const BloomParams& params() const { return params_; }

  /// Number of set bits (popcount over the array).
  uint64_t CountSetBits() const;

  /// Bitwise OR of another filter with identical parameters (used when an
  /// RLI aggregates partitioned updates from one LRC).
  rlscommon::Status Merge(const BloomFilter& other);

  void Clear();

  /// Serialized size in bytes (header + bit array): this is the wire size
  /// of a compressed soft-state update.
  std::size_t SerializedBytes() const;

  /// Serializes to `out` (appends).
  void Serialize(std::string* out) const;

  /// Parses a serialized filter. Returns Protocol error on malformed input.
  static rlscommon::Status Deserialize(std::string_view data, BloomFilter* out);

  /// Direct access for tests and the RLI memory store.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  friend class CountingBloomFilter;

  BloomParams params_;
  std::vector<uint64_t> words_;
  uint64_t insert_count_ = 0;
};

/// Counting Bloom filter (Fan et al. 2000, "Summary Cache" — reference [3]
/// of the paper): 4-bit counters support deletion. The LRC keeps one of
/// these so that mapping deletions can "unset" bits (paper §5.5 claims
/// subsequent updates are reflected by setting or unsetting bits — only
/// sound with counters). ToBloomFilter() exports the plain bitmap.
class CountingBloomFilter {
 public:
  CountingBloomFilter() = default;
  explicit CountingBloomFilter(BloomParams params);

  static CountingBloomFilter ForEntries(uint64_t expected_entries);

  void Insert(std::string_view key);

  /// Decrements the key's counters. Removing a key that was never inserted
  /// corrupts the filter, as with any counting Bloom filter; callers
  /// (LrcStore) only remove keys they previously inserted.
  void Remove(std::string_view key);

  bool Contains(std::string_view key) const;

  /// Plain bitmap snapshot (bit set where counter > 0) for the wire.
  BloomFilter ToBloomFilter() const;

  uint64_t num_bits() const { return params_.num_bits; }
  const BloomParams& params() const { return params_; }

  /// True if any counter has saturated at 15 (then Remove may leave the
  /// bit stuck set; never produces false negatives).
  bool HasSaturated() const { return saturated_; }

  void Clear();

 private:
  uint8_t GetCounter(uint64_t index) const;
  void SetCounter(uint64_t index, uint8_t value);

  BloomParams params_;
  std::vector<uint8_t> nibbles_;  // two 4-bit counters per byte
  bool saturated_ = false;
};

}  // namespace bloom
