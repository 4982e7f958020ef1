#include "bloom/bloom_filter.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace bloom {
namespace {

constexpr uint32_t kSerialMagic = 0x424c4d31;  // "BLM1"

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool ReadU32(std::string_view& data, uint32_t* v) {
  if (data.size() < 4) return false;
  std::memcpy(v, data.data(), 4);
  data.remove_prefix(4);
  return true;
}

bool ReadU64(std::string_view& data, uint64_t* v) {
  if (data.size() < 8) return false;
  std::memcpy(v, data.data(), 8);
  data.remove_prefix(8);
  return true;
}

/// 64-bit words that hold `num_bits` bits; (num_bits + 63) / 64 would
/// wrap to 0 for the largest counts.
uint64_t WordsFor(uint64_t num_bits) { return num_bits / 64 + (num_bits % 64 != 0); }

}  // namespace

BloomParams SizeForEntries(uint64_t expected_entries) {
  BloomParams p;
  p.num_bits = expected_entries * 10;
  if (p.num_bits < 1024) p.num_bits = 1024;
  p.num_hashes = 3;
  return p;
}

double ExpectedFalsePositiveRate(const BloomParams& params, uint64_t entries) {
  if (params.num_bits == 0) return 1.0;
  const double k = params.num_hashes;
  const double n = static_cast<double>(entries);
  const double m = static_cast<double>(params.num_bits);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

BloomFilter::BloomFilter(BloomParams params) : params_(params) {
  words_.assign(WordsFor(params_.num_bits), 0);
}

BloomFilter BloomFilter::ForEntries(uint64_t expected_entries) {
  return BloomFilter(SizeForEntries(expected_entries));
}

void BloomFilter::Insert(std::string_view key) { InsertHashed(HashKey(key)); }

void BloomFilter::InsertHashed(const HashPair& h) {
  const BitPositions at(h, params_.num_bits, params_.num_hashes);
  for (uint32_t i = 0; i < at.size(); ++i) {
    const uint64_t bit = at[i];
    words_[bit >> 6] |= 1ULL << (bit & 63);
  }
  ++insert_count_;
}

bool BloomFilter::Contains(std::string_view key) const {
  return ContainsHashed(HashKey(key));
}

bool BloomFilter::ContainsHashed(const HashPair& h) const {
  const BitPositions at(h, params_.num_bits, params_.num_hashes);
  if (at.size() == 0) return false;
  for (uint32_t i = 0; i < at.size(); ++i) {
    if (!TestBit(at[i])) return false;
  }
  return true;
}

uint64_t BloomFilter::CountSetBits() const {
  uint64_t total = 0;
  for (uint64_t w : words_) total += static_cast<uint64_t>(std::popcount(w));
  return total;
}

rlscommon::Status BloomFilter::Merge(const BloomFilter& other) {
  if (!(params_ == other.params_)) {
    return rlscommon::Status::InvalidArgument(
        "cannot merge Bloom filters with different parameters");
  }
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  insert_count_ += other.insert_count_;
  return rlscommon::Status::Ok();
}

void BloomFilter::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
  insert_count_ = 0;
}

std::size_t BloomFilter::SerializedBytes() const {
  return 4 + 8 + 4 + 8 + words_.size() * 8;
}

void BloomFilter::Serialize(std::string* out) const {
  AppendU32(out, kSerialMagic);
  AppendU64(out, params_.num_bits);
  AppendU32(out, params_.num_hashes);
  AppendU64(out, insert_count_);
  out->append(reinterpret_cast<const char*>(words_.data()), words_.size() * 8);
}

rlscommon::Status BloomFilter::Deserialize(std::string_view data, BloomFilter* out) {
  uint32_t magic = 0;
  if (!ReadU32(data, &magic) || magic != kSerialMagic) {
    return rlscommon::Status::Protocol("bad Bloom filter magic");
  }
  BloomParams params;
  uint32_t hashes = 0;
  uint64_t count = 0;
  if (!ReadU64(data, &params.num_bits) || !ReadU32(data, &hashes) ||
      !ReadU64(data, &count)) {
    return rlscommon::Status::Protocol("truncated Bloom filter header");
  }
  params.num_hashes = hashes;
  if (params.num_hashes == 0 || params.num_hashes > 32) {
    return rlscommon::Status::Protocol("unreasonable Bloom hash count");
  }
  // An LRC never sends fewer than SizeForEntries' 1024 bits.
  if (params.num_bits == 0) return rlscommon::Status::Protocol("empty Bloom filter");
  if (data.size() != WordsFor(params.num_bits) * 8) {
    return rlscommon::Status::Protocol("Bloom filter body size mismatch");
  }
  BloomFilter filter(params);
  std::memcpy(filter.words_.data(), data.data(), data.size());
  filter.insert_count_ = count;
  *out = std::move(filter);
  return rlscommon::Status::Ok();
}

CountingBloomFilter::CountingBloomFilter(BloomParams params) : params_(params) {
  nibbles_.assign((params_.num_bits + 1) / 2, 0);
}

CountingBloomFilter CountingBloomFilter::ForEntries(uint64_t expected_entries) {
  return CountingBloomFilter(SizeForEntries(expected_entries));
}

uint8_t CountingBloomFilter::GetCounter(uint64_t index) const {
  uint8_t byte = nibbles_[index >> 1];
  return (index & 1) ? (byte >> 4) : (byte & 0x0f);
}

void CountingBloomFilter::SetCounter(uint64_t index, uint8_t value) {
  uint8_t& byte = nibbles_[index >> 1];
  if (index & 1) {
    byte = static_cast<uint8_t>((byte & 0x0f) | (value << 4));
  } else {
    byte = static_cast<uint8_t>((byte & 0xf0) | (value & 0x0f));
  }
}

void CountingBloomFilter::Insert(std::string_view key) {
  const BitPositions at(HashKey(key), params_.num_bits, params_.num_hashes);
  for (uint32_t i = 0; i < at.size(); ++i) {
    const uint64_t bit = at[i];
    uint8_t c = GetCounter(bit);
    if (c == 15) {
      saturated_ = true;  // stuck counter: never decremented below
    } else {
      SetCounter(bit, static_cast<uint8_t>(c + 1));
    }
  }
}

void CountingBloomFilter::Remove(std::string_view key) {
  const BitPositions at(HashKey(key), params_.num_bits, params_.num_hashes);
  for (uint32_t i = 0; i < at.size(); ++i) {
    const uint64_t bit = at[i];
    uint8_t c = GetCounter(bit);
    if (c == 15) continue;  // saturated: leave stuck (no false negatives)
    if (c > 0) SetCounter(bit, static_cast<uint8_t>(c - 1));
  }
}

bool CountingBloomFilter::Contains(std::string_view key) const {
  const BitPositions at(HashKey(key), params_.num_bits, params_.num_hashes);
  if (at.size() == 0) return false;
  for (uint32_t i = 0; i < at.size(); ++i) {
    if (GetCounter(at[i]) == 0) return false;
  }
  return true;
}

BloomFilter CountingBloomFilter::ToBloomFilter() const {
  BloomFilter out(params_);
  // Walk counters and set corresponding bits in the plain filter.
  for (uint64_t bit = 0; bit < params_.num_bits; ++bit) {
    if (GetCounter(bit) > 0) {
      out.words_[bit >> 6] |= (1ULL << (bit & 63));
    }
  }
  return out;
}

void CountingBloomFilter::Clear() {
  std::fill(nibbles_.begin(), nibbles_.end(), 0);
  saturated_ = false;
}

}  // namespace bloom
