#include "rls/rli_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/workload.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

class RliRelationalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dsn_ = "mysql://rlistore" + std::to_string(counter.fetch_add(1));
    ASSERT_TRUE(env_.CreateDatabase(dsn_).ok());
    ASSERT_TRUE(RliRelationalStore::Create(env_, dsn_, &store_).ok());
  }

  dbapi::Environment env_;
  std::string dsn_;
  std::unique_ptr<RliRelationalStore> store_;
};

TEST_F(RliRelationalTest, UpsertAndQuery) {
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc1", 1000).ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(store_->Query("lfn1", &lrcs).ok());
  EXPECT_EQ(lrcs.size(), 2u);
  EXPECT_EQ(store_->Query("missing", &lrcs).code(), ErrorCode::kNotFound);
}

TEST_F(RliRelationalTest, UpsertRefreshesNotDuplicates) {
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc0", 2000).ok());
  EXPECT_EQ(store_->AssociationCount(), 1u);
  // The refreshed timestamp must survive an expiration pass at t=1500.
  uint64_t removed = 0;
  ASSERT_TRUE(store_->ExpireOlderThan(1500, &removed).ok());
  EXPECT_EQ(removed, 0u);
  std::vector<std::string> lrcs;
  EXPECT_TRUE(store_->Query("lfn1", &lrcs).ok());
}

TEST_F(RliRelationalTest, BatchUpsert) {
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back("lfn" + std::to_string(i));
  ASSERT_TRUE(store_->UpsertBatch(names, "rls://lrc0", 500).ok());
  EXPECT_EQ(store_->AssociationCount(), 100u);
  EXPECT_EQ(store_->LogicalNameCount(), 100u);
}

TEST_F(RliRelationalTest, ExpirationDiscardsStaleEntries) {
  // Paper §3.2: "an expire thread ... discards entries older than the
  // allowed timeout interval".
  ASSERT_TRUE(store_->Upsert("old", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Upsert("fresh", "rls://lrc0", 9000).ok());
  uint64_t removed = 0;
  ASSERT_TRUE(store_->ExpireOlderThan(5000, &removed).ok());
  EXPECT_EQ(removed, 1u);
  std::vector<std::string> lrcs;
  EXPECT_EQ(store_->Query("old", &lrcs).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(store_->Query("fresh", &lrcs).ok());
  // Orphaned logical-name rows are garbage collected.
  EXPECT_EQ(store_->LogicalNameCount(), 1u);
}

// Expiry drops what is stamped at or before the cutoff, and OldestStamp
// names the stamp that comes due next.
TEST_F(RliRelationalTest, OldestStampIsTheNextEntryDue) {
  int64_t oldest = 0;
  uint64_t removed = 0;
  EXPECT_FALSE(store_->OldestStamp(&oldest));
  ASSERT_TRUE(store_->Upsert("a", "rls://lrc0", 3000).ok());
  ASSERT_TRUE(store_->Upsert("b", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->OldestStamp(&oldest));
  EXPECT_EQ(oldest, 1000);
  ASSERT_TRUE(store_->ExpireOlderThan(1000, &removed).ok());
  EXPECT_EQ(removed, 1u);
  ASSERT_TRUE(store_->OldestStamp(&oldest));
  EXPECT_EQ(oldest, 3000);
  ASSERT_TRUE(store_->ExpireOlderThan(3000, &removed).ok());
  EXPECT_FALSE(store_->OldestStamp(&oldest));
}

// An expiry pass that collects a logical name's row while an upsert of
// that name runs must not leave the upsert's association pointing at
// the deleted row: the name stays answerable once the upsert returns.
TEST_F(RliRelationalTest, ExpiryNeverOrphansAConcurrentUpsert) {
  int lost = 0;
  for (int round = 0; round < 2000; ++round) {
    ASSERT_TRUE(store_->Upsert("n", "rls://lrc0", 1000).ok());
    std::thread expirer([&] {
      uint64_t removed = 0;
      EXPECT_TRUE(store_->ExpireOlderThan(1500, &removed).ok());
    });
    ASSERT_TRUE(store_->Upsert("n", "rls://lrc0", 2000).ok());
    expirer.join();
    std::vector<std::string> lrcs;
    if (!store_->Query("n", &lrcs).ok()) ++lost;
    uint64_t removed = 0;
    ASSERT_TRUE(store_->ExpireOlderThan(2500, &removed).ok());
  }
  EXPECT_EQ(lost, 0) << "rounds whose fresh association lost its name row";
}

TEST_F(RliRelationalTest, RemoveIsIdempotent) {
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Remove("lfn1", "rls://lrc0").ok());
  ASSERT_TRUE(store_->Remove("lfn1", "rls://lrc0").ok());
  ASSERT_TRUE(store_->Remove("never-existed", "rls://lrc0").ok());
  std::vector<std::string> lrcs;
  EXPECT_EQ(store_->Query("lfn1", &lrcs).code(), ErrorCode::kNotFound);
}

TEST_F(RliRelationalTest, RemoveOnlyAffectsOneLrc) {
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Upsert("lfn1", "rls://lrc1", 1000).ok());
  ASSERT_TRUE(store_->Remove("lfn1", "rls://lrc0").ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(store_->Query("lfn1", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "rls://lrc1");
}

TEST_F(RliRelationalTest, WildcardQuery) {
  ASSERT_TRUE(store_->Upsert("lfn://a/1", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Upsert("lfn://a/2", "rls://lrc0", 1000).ok());
  ASSERT_TRUE(store_->Upsert("lfn://b/1", "rls://lrc1", 1000).ok());
  std::vector<Mapping> results;
  ASSERT_TRUE(store_->WildcardQuery("lfn://a/*", 0, &results).ok());
  EXPECT_EQ(results.size(), 2u);
}

TEST_F(RliRelationalTest, ListLrcs) {
  ASSERT_TRUE(store_->Upsert("x", "rls://lrc0", 1).ok());
  ASSERT_TRUE(store_->Upsert("y", "rls://lrc1", 1).ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(store_->ListLrcs(&lrcs).ok());
  EXPECT_EQ(lrcs.size(), 2u);
}

TEST(RliBloomStoreTest, StoreAndQuery) {
  RliBloomStore store;
  bloom::BloomFilter f0 = bloom::BloomFilter::ForEntries(1000);
  f0.Insert("lfn1");
  f0.Insert("lfn2");
  bloom::BloomFilter f1 = bloom::BloomFilter::ForEntries(1000);
  f1.Insert("lfn2");
  store.StoreFilter("rls://lrc0", std::move(f0));
  store.StoreFilter("rls://lrc1", std::move(f1));
  EXPECT_EQ(store.filter_count(), 2u);

  std::vector<std::string> lrcs;
  ASSERT_TRUE(store.Query("lfn1", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "rls://lrc0");
  ASSERT_TRUE(store.Query("lfn2", &lrcs).ok());
  EXPECT_EQ(lrcs.size(), 2u);
  EXPECT_EQ(store.Query("absent-name-zzz", &lrcs).code(), ErrorCode::kNotFound);
}

TEST(RliBloomStoreTest, ReplacingFilterDropsOldBits) {
  RliBloomStore store;
  bloom::BloomFilter old_filter = bloom::BloomFilter::ForEntries(1000);
  old_filter.Insert("old-name");
  store.StoreFilter("rls://lrc0", std::move(old_filter));
  bloom::BloomFilter new_filter = bloom::BloomFilter::ForEntries(1000);
  new_filter.Insert("new-name");
  store.StoreFilter("rls://lrc0", std::move(new_filter));
  EXPECT_EQ(store.filter_count(), 1u);
  std::vector<std::string> lrcs;
  EXPECT_EQ(store.Query("old-name", &lrcs).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(store.Query("new-name", &lrcs).ok());
}

// A filter exactly max_age old is dropped; OldestStamp names the least
// recently refreshed filter left.
TEST(RliBloomStoreTest, OldestStampIsTheLeastRecentRefresh) {
  rlscommon::ManualClock clock;
  RliBloomStore store(&clock);
  rlscommon::TimePoint oldest;
  EXPECT_FALSE(store.OldestStamp(&oldest));
  store.StoreFilter("rls://a", bloom::BloomFilter::ForEntries(100));
  clock.Advance(std::chrono::seconds(10));
  store.StoreFilter("rls://b", bloom::BloomFilter::ForEntries(100));
  ASSERT_TRUE(store.OldestStamp(&oldest));
  EXPECT_EQ(oldest, rlscommon::TimePoint{});
  EXPECT_EQ(store.ExpireOlderThan(std::chrono::seconds(10)), 1u);
  ASSERT_TRUE(store.OldestStamp(&oldest));
  EXPECT_EQ(oldest, rlscommon::TimePoint{} + std::chrono::seconds(10));
}

TEST(RliBloomStoreTest, ExpirationUsesClock) {
  rlscommon::ManualClock clock;
  RliBloomStore store(&clock);
  store.StoreFilter("rls://stale", bloom::BloomFilter::ForEntries(100));
  clock.Advance(std::chrono::seconds(100));
  store.StoreFilter("rls://fresh", bloom::BloomFilter::ForEntries(100));
  EXPECT_EQ(store.ExpireOlderThan(std::chrono::seconds(50)), 1u);
  EXPECT_EQ(store.filter_count(), 1u);
  std::vector<std::string> lrcs;
  ASSERT_TRUE(store.ListLrcs(&lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "rls://fresh");
}

// Every answer is the url-ordered list of filters that hold the name by
// their own ContainsHashed, over 67 filters (one full probe batch of 64
// and a partial one) of three interleaved geometries; two share a bit
// count and differ only in hash count.
TEST(RliBloomStoreTest, EveryAnswerIsTheFiltersThatHoldTheName) {
  RliBloomStore store;
  rlscommon::NameGenerator present("present");
  rlscommon::NameGenerator absent("absent");
  constexpr int kFilters = 67;
  constexpr uint64_t kNames = 10000;
  std::map<std::string, bloom::BloomFilter> reference;
  // Stored in reverse url order, so the store must sort.
  for (int f = kFilters - 1; f >= 0; --f) {
    bloom::BloomFilter filter = f % 3 == 0   ? bloom::BloomFilter::ForEntries(1000)
                                : f % 3 == 1 ? bloom::BloomFilter::ForEntries(100000)
                                             : bloom::BloomFilter({10000, 5});
    for (uint64_t i = 0; i < kNames; ++i) {
      if ((i + static_cast<uint64_t>(f)) % 4 == 0) filter.Insert(present.LogicalName(i));
    }
    const std::string url = "rls://lrc" + std::to_string(100 + f);
    reference.emplace(url, filter);
    store.StoreFilter(url, std::move(filter));
  }
  ASSERT_EQ(store.filter_count(), static_cast<std::size_t>(kFilters));

  uint64_t answered = 0;
  std::vector<std::string> lrcs;
  for (const rlscommon::NameGenerator* names : {&present, &absent}) {
    for (uint64_t i = 0; i < kNames; ++i) {
      const std::string name = names->LogicalName(i);
      const bloom::HashPair hash = bloom::HashKey(name);
      std::vector<std::string> expected;
      for (const auto& [url, filter] : reference) {
        if (filter.ContainsHashed(hash)) expected.push_back(url);
      }
      const rlscommon::Status s = store.Query(name, &lrcs);
      if (expected.empty()) {
        ASSERT_EQ(s.code(), ErrorCode::kNotFound) << name;
        continue;
      }
      ASSERT_TRUE(s.ok()) << name;
      ASSERT_EQ(lrcs, expected) << name;
      ++answered;
    }
  }
  // Present names hit several filters each; the overfull ones also
  // answer for absent names.
  EXPECT_GT(answered, kNames);
}

// A concurrency checker: readers query a name that every version of
// filter "a" holds while a writer replaces "a" and stores and expires
// urls on both sides of it, so "a" moves within the array. No answer
// may miss "a".
TEST(RliBloomStoreTest, ConcurrentReadersNeverMissAFilterBeingReplaced) {
  rlscommon::ManualClock clock;
  RliBloomStore store(&clock);
  auto filter_for = [](int round, uint64_t entries) {
    bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(entries);
    filter.Insert("held-by-a");
    filter.Insert("round-" + std::to_string(round));
    return filter;
  };
  store.StoreFilter("rls://a", filter_for(0, 1000));
  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::vector<std::string> lrcs;
      // Each reader checks at least a few hundred answers, writer or not.
      for (int n = 0; !done.load() || n < 200; ++n) {
        const rlscommon::Status s = store.Query("held-by-a", &lrcs);
        if (!s.ok() || std::find(lrcs.begin(), lrcs.end(), "rls://a") == lrcs.end()) {
          misses.fetch_add(1);
        }
        queries.fetch_add(1);
      }
    });
  }
  for (int round = 1; round <= 300; ++round) {
    clock.Advance(std::chrono::seconds(1));
    // Alternate geometries, so "a" changes geometry too.
    store.StoreFilter("rls://a", filter_for(round, round % 2 ? 100000 : 1000));
    for (const char* side : {"rls://0-", "rls://b-", "rls://z-"}) {
      store.StoreFilter(side + std::to_string(round), filter_for(round, 1000));
    }
    // Drops the previous round's others; "a" was stored just now.
    store.ExpireOlderThan(std::chrono::milliseconds(500));
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(misses.load(), 0u) << "of " << queries.load() << " queries";
  EXPECT_EQ(store.filter_count(), 4u);
}

TEST(RliBloomStoreTest, TotalBitsTracksMemoryFootprint) {
  RliBloomStore store;
  store.StoreFilter("a", bloom::BloomFilter::ForEntries(100000));
  store.StoreFilter("b", bloom::BloomFilter::ForEntries(100000));
  EXPECT_EQ(store.TotalFilterBits(), 2u * 1000000u);
}

}  // namespace
}  // namespace rls
