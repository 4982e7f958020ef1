#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/workload.h"

namespace bloom {
namespace {

TEST(SizingTest, PaperPolicyTenBitsPerEntry) {
  // "10 million bits for approximately 1 million entries" (paper §3.4).
  BloomParams p = SizeForEntries(1000000);
  EXPECT_EQ(p.num_bits, 10000000u);
  EXPECT_EQ(p.num_hashes, 3u);
}

TEST(SizingTest, MinimumSize) {
  EXPECT_EQ(SizeForEntries(0).num_bits, 1024u);
  EXPECT_EQ(SizeForEntries(10).num_bits, 1024u);
}

TEST(SizingTest, ExpectedFalsePositiveNearOnePercent) {
  // The paper's parameters "give a false positive rate of approximately 1%".
  BloomParams p = SizeForEntries(1000000);
  double fp = ExpectedFalsePositiveRate(p, 1000000);
  EXPECT_GT(fp, 0.005);
  EXPECT_LT(fp, 0.02);
}

TEST(HashingTest, DeterministicAndSpread) {
  HashPair a = HashKey("lfn://x/1");
  HashPair b = HashKey("lfn://x/1");
  HashPair c = HashKey("lfn://x/2");
  EXPECT_EQ(a.h1, b.h1);
  EXPECT_EQ(a.h2, b.h2);
  EXPECT_NE(a.h1, c.h1);
}

TEST(HashingTest, IndexHashInRange) {
  const BitPositions at(HashKey("some-key"), 1000, 16);
  ASSERT_EQ(at.size(), 16u);
  for (uint32_t i = 0; i < at.size(); ++i) {
    EXPECT_LT(at[i], 1000u);
  }
  // A filter with no bits has no positions to divide into.
  EXPECT_EQ(BitPositions(HashKey("some-key"), 0, 3).size(), 0u);
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter = BloomFilter::ForEntries(10000);
  rlscommon::NameGenerator gen("t");
  for (uint64_t i = 0; i < 10000; ++i) filter.Insert(gen.LogicalName(i));
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(filter.Contains(gen.LogicalName(i))) << i;
  }
}

TEST(BloomFilterTest, MeasuredFalsePositiveRateNearOnePercent) {
  BloomFilter filter = BloomFilter::ForEntries(50000);
  rlscommon::NameGenerator gen("fp");
  for (uint64_t i = 0; i < 50000; ++i) filter.Insert(gen.LogicalName(i));
  uint64_t false_positives = 0;
  const uint64_t probes = 50000;
  for (uint64_t i = 0; i < probes; ++i) {
    if (filter.Contains(gen.LogicalName(1000000 + i))) ++false_positives;
  }
  const double rate = static_cast<double>(false_positives) / probes;
  EXPECT_GT(rate, 0.001);
  EXPECT_LT(rate, 0.03) << "paper claims ~1%";
}

TEST(BloomFilterTest, EmptyContainsNothing) {
  BloomFilter filter = BloomFilter::ForEntries(1000);
  EXPECT_FALSE(filter.Contains("anything"));
  EXPECT_EQ(filter.CountSetBits(), 0u);
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  BloomFilter filter = BloomFilter::ForEntries(5000);
  rlscommon::NameGenerator gen("ser");
  for (uint64_t i = 0; i < 5000; ++i) filter.Insert(gen.LogicalName(i));
  std::string bytes;
  filter.Serialize(&bytes);
  EXPECT_EQ(bytes.size(), filter.SerializedBytes());

  BloomFilter restored;
  ASSERT_TRUE(BloomFilter::Deserialize(bytes, &restored).ok());
  EXPECT_EQ(restored.num_bits(), filter.num_bits());
  EXPECT_EQ(restored.insert_count(), filter.insert_count());
  EXPECT_EQ(restored.CountSetBits(), filter.CountSetBits());
  for (uint64_t i = 0; i < 5000; ++i) {
    EXPECT_TRUE(restored.Contains(gen.LogicalName(i)));
  }
}

TEST(BloomFilterTest, DeserializeRejectsGarbage) {
  BloomFilter out;
  EXPECT_FALSE(BloomFilter::Deserialize("", &out).ok());
  EXPECT_FALSE(BloomFilter::Deserialize("short", &out).ok());
  std::string bytes;
  BloomFilter::ForEntries(100).Serialize(&bytes);
  bytes.resize(bytes.size() - 3);  // truncate body
  EXPECT_FALSE(BloomFilter::Deserialize(bytes, &out).ok());
  bytes[0] = 'X';  // bad magic
  EXPECT_FALSE(BloomFilter::Deserialize(bytes, &out).ok());
}

// A header's bit count must match its body exactly, and a filter needs
// bits. (num_bits + 63) / 64 used to wrap for the top 63 counts, so a
// 24-byte header with no body passed as a filter of 2^64 - 1 bits, and
// the next query read far past its empty array.
TEST(BloomFilterTest, DeserializeAcceptsOnlyABodyOfExactlyTheHeadersBits) {
  std::vector<uint64_t> bit_counts = {0, 1, 63, 64, 65};
  for (uint64_t top = ~uint64_t{0} - 63;; ++top) {
    bit_counts.push_back(top);
    if (top == ~uint64_t{0}) break;
  }
  std::string header;
  BloomFilter::ForEntries(100).Serialize(&header);
  header.resize(24);  // magic, num_bits, 3 hashes, insert count
  for (const uint64_t num_bits : bit_counts) {
    std::memcpy(header.data() + 4, &num_bits, sizeof(num_bits));
    const uint64_t exact = (num_bits / 64 + (num_bits % 64 != 0)) * 8;
    // Bodies of 2^61 bytes are not built; those counts get the empty one.
    std::vector<uint64_t> body_sizes = {0};
    if (exact <= 4096) body_sizes.insert(body_sizes.end(), {exact, exact + 8});
    if (exact >= 8 && exact <= 4096) body_sizes.push_back(exact - 8);
    for (const uint64_t body : body_sizes) {
      SCOPED_TRACE("num_bits " + std::to_string(num_bits) + ", body " +
                   std::to_string(body));
      std::string bytes = header;
      bytes.append(body, '\xff');
      BloomFilter out;
      const rlscommon::Status s = BloomFilter::Deserialize(bytes, &out);
      if (num_bits == 0 || body != exact) {
        EXPECT_EQ(s.code(), rlscommon::ErrorCode::kProtocol);
        continue;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(out.num_bits(), num_bits);
      EXPECT_EQ(out.words().size() * 8, body);
      EXPECT_TRUE(out.Contains("every bit is set"));
      out.Clear();
      EXPECT_FALSE(out.Contains("lfn"));
      out.Insert("lfn");
      EXPECT_TRUE(out.Contains("lfn"));
    }
  }
}

// A default-constructed filter has no bits: it takes inserts and holds
// nothing, where an insert used to divide by zero.
TEST(BloomFilterTest, ZeroBitFilterHoldsNothing) {
  BloomFilter filter;
  filter.Insert("lfn");
  EXPECT_FALSE(filter.Contains("lfn"));
  EXPECT_EQ(filter.insert_count(), 1u);
  CountingBloomFilter counting;
  counting.Insert("lfn");
  EXPECT_FALSE(counting.Contains("lfn"));
  counting.Remove("lfn");
  EXPECT_EQ(counting.ToBloomFilter().CountSetBits(), 0u);
}

TEST(BloomFilterTest, WireSizeMatchesPaperScale) {
  // 1M entries -> 10 Mbit filter = 1.25 MB on the wire (Table 3).
  BloomFilter filter = BloomFilter::ForEntries(1000000);
  const double mb = static_cast<double>(filter.SerializedBytes()) / (1024.0 * 1024.0);
  EXPECT_NEAR(mb, 1.19, 0.1);  // 10^7 bits / 8 / 2^20
}

TEST(BloomFilterTest, MergeUnionsBits) {
  BloomFilter a = BloomFilter::ForEntries(1000);
  BloomFilter b = BloomFilter::ForEntries(1000);
  a.Insert("only-in-a");
  b.Insert("only-in-b");
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_TRUE(a.Contains("only-in-a"));
  EXPECT_TRUE(a.Contains("only-in-b"));
}

TEST(BloomFilterTest, MergeRejectsMismatchedParams) {
  BloomFilter a = BloomFilter::ForEntries(1000);
  BloomFilter b = BloomFilter::ForEntries(100000);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter filter = BloomFilter::ForEntries(1000);
  filter.Insert("x");
  filter.Clear();
  EXPECT_FALSE(filter.Contains("x"));
  EXPECT_EQ(filter.insert_count(), 0u);
}

TEST(CountingBloomTest, InsertRemoveRestoresAbsence) {
  CountingBloomFilter filter = CountingBloomFilter::ForEntries(10000);
  filter.Insert("lfn://a");
  EXPECT_TRUE(filter.Contains("lfn://a"));
  filter.Remove("lfn://a");
  EXPECT_FALSE(filter.Contains("lfn://a"));
}

TEST(CountingBloomTest, RemoveKeepsOverlappingKeys) {
  CountingBloomFilter filter = CountingBloomFilter::ForEntries(10000);
  rlscommon::NameGenerator gen("cb");
  for (uint64_t i = 0; i < 1000; ++i) filter.Insert(gen.LogicalName(i));
  // Removing half must not create false negatives for the rest.
  for (uint64_t i = 0; i < 500; ++i) filter.Remove(gen.LogicalName(i));
  for (uint64_t i = 500; i < 1000; ++i) {
    EXPECT_TRUE(filter.Contains(gen.LogicalName(i))) << i;
  }
}

TEST(CountingBloomTest, ExportedBitmapMatchesMembership) {
  CountingBloomFilter counting = CountingBloomFilter::ForEntries(5000);
  rlscommon::NameGenerator gen("ex");
  for (uint64_t i = 0; i < 2000; ++i) counting.Insert(gen.LogicalName(i));
  for (uint64_t i = 0; i < 1000; ++i) counting.Remove(gen.LogicalName(i));
  BloomFilter exported = counting.ToBloomFilter();
  for (uint64_t i = 1000; i < 2000; ++i) {
    EXPECT_TRUE(exported.Contains(gen.LogicalName(i)));
  }
  // The churn (add 2000, remove 1000) must not leave the filter denser
  // than a fresh filter of the surviving keys would roughly be.
  BloomFilter fresh(exported.params());
  for (uint64_t i = 1000; i < 2000; ++i) fresh.Insert(gen.LogicalName(i));
  EXPECT_LE(exported.CountSetBits(), fresh.CountSetBits() + 16);
}

TEST(CountingBloomTest, SaturationFlagsAndStaysSafe) {
  BloomParams tiny{64, 3};
  CountingBloomFilter filter(tiny);
  // Cram in enough duplicates to saturate 4-bit counters.
  for (int i = 0; i < 20; ++i) filter.Insert("same-key");
  EXPECT_TRUE(filter.HasSaturated());
  for (int i = 0; i < 20; ++i) filter.Remove("same-key");
  // Saturated counters stick: no false negative possible.
  EXPECT_TRUE(filter.Contains("same-key"));
}

// Parameterized sweep: the 10-bits/entry + 3-hash policy holds its ~1%
// false-positive promise across catalog sizes.
class FpSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FpSweep, FalsePositiveBounded) {
  const uint64_t entries = GetParam();
  BloomFilter filter = BloomFilter::ForEntries(entries);
  rlscommon::NameGenerator gen("sweep");
  for (uint64_t i = 0; i < entries; ++i) filter.Insert(gen.LogicalName(i));
  uint64_t fp = 0;
  const uint64_t probes = 20000;
  for (uint64_t i = 0; i < probes; ++i) {
    if (filter.Contains(gen.LogicalName(10000000 + i))) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.03);
}

INSTANTIATE_TEST_SUITE_P(CatalogSizes, FpSweep,
                         ::testing::Values(1000, 10000, 100000, 250000));

}  // namespace
}  // namespace bloom
