#include "rdb/index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "rdb/schema.h"

namespace rdb {
namespace {

Rid R(uint32_t page, uint16_t slot) { return Rid{page, slot}; }

static_assert(sizeof(HashIndex::Entry) == 16, "a hash index slot is 16 bytes");

/// A heap of two-column rows (sequence number, key). The hash index reads
/// its keys from column 1 of these rows, so every indexed rid must be a
/// row added here.
class KeyHeap {
 public:
  Rid Add(const Value& key) {
    std::string bytes;
    EncodeRow({Value::Int(next_++), key}, &bytes);
    return heap_.Insert(bytes);
  }
  /// Stores raw bytes as a row (malformed-row cases).
  Rid AddRaw(std::string_view bytes) { return heap_.Insert(bytes); }

  HashIndex Index(IndexDeleteMode mode, bool unique = false) const {
    return HashIndex(&heap_, /*column=*/1, mode, unique);
  }

 private:
  HeapFile heap_;
  int64_t next_ = 0;
};

/// Adds a row for `key` and indexes it.
Rid AddIndexed(KeyHeap* heap, HashIndex* index, const Value& key) {
  const Rid rid = heap->Add(key);
  EXPECT_TRUE(index->Insert(key, rid));
  return rid;
}

std::vector<Rid> LookupAll(const HashIndex& index, const Value& key) {
  std::vector<Rid> rids;
  index.Lookup(key, &rids);
  return rids;
}

/// Entries one Lookup of `key` visits: the key slots of its probe run up
/// to its own, then the rows of its group.
uint64_t ProbeSteps(const HashIndex& index, const Value& key) {
  std::vector<Rid> rids;
  uint64_t steps = 0;
  index.Lookup(key, &rids, &steps);
  return steps;
}

/// Int keys whose home slot in an array of `slots` slots is `home`
/// (the home slot is the hash's low bits).
std::vector<Value> KeysWithHome(std::size_t home, std::size_t slots, int count) {
  std::vector<Value> keys;
  for (int64_t k = 0; static_cast<int>(keys.size()) < count; ++k) {
    if ((Value::Int(k).Hash() & (slots - 1)) == home) keys.push_back(Value::Int(k));
  }
  return keys;
}

TEST(HashIndexTest, InsertLookup) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  const Rid a = AddIndexed(&heap, &index, Value::String("a"));
  AddIndexed(&heap, &index, Value::String("b"));
  const std::vector<Rid> rids = LookupAll(index, Value::String("a"));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], a);
}

TEST(HashIndexTest, MultimapSemantics) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  AddIndexed(&heap, &index, Value::Int(7));
  AddIndexed(&heap, &index, Value::Int(7));
  EXPECT_EQ(LookupAll(index, Value::Int(7)).size(), 2u);
}

TEST(HashIndexTest, UniqueRejectsDuplicates) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase, /*unique=*/true);
  const Rid first = heap.Add(Value::String("key"));
  EXPECT_TRUE(index.Insert(Value::String("key"), first));
  EXPECT_FALSE(index.Insert(Value::String("key"), heap.Add(Value::String("key"))));
  // After erasing, the key becomes insertable again.
  index.Erase(Value::String("key"), first);
  EXPECT_TRUE(index.Insert(Value::String("key"), heap.Add(Value::String("key"))));
}

TEST(HashIndexTest, EraseModeRemovesEntries) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  std::vector<Rid> rids;
  for (int i = 0; i < 1000; ++i) rids.push_back(AddIndexed(&heap, &index, Value::Int(i)));
  for (int i = 0; i < 1000; ++i) index.Erase(Value::Int(i), rids[i]);
  EXPECT_EQ(index.stats().live_entries, 0u);
  EXPECT_EQ(index.stats().tombstones, 0u);
  EXPECT_EQ(ProbeSteps(index, Value::Int(5)), 0u) << "erase must leave no markers";
}

TEST(HashIndexTest, TombstoneModeAccumulatesDead) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kTombstone);
  std::vector<Rid> rids;
  for (int i = 0; i < 1000; ++i) rids.push_back(AddIndexed(&heap, &index, Value::Int(i)));
  for (int i = 0; i < 1000; ++i) index.Erase(Value::Int(i), rids[i]);
  EXPECT_EQ(index.stats().live_entries, 0u);
  EXPECT_EQ(index.stats().tombstones, 1000u);
  // Like a PostgreSQL index: dead entries are still RETURNED — only the
  // heap fetch (visibility check) reveals they are deleted. That fetch
  // is the cost the Fig. 8 saw-tooth measures.
  const std::vector<Rid> found = LookupAll(index, Value::Int(5));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], rids[5]);
  EXPECT_FALSE(index.ContainsKey(Value::Int(5))) << "ContainsKey sees live entries only";
}

TEST(HashIndexTest, EraseModeReturnsNoDeadEntries) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  const Rid rid = AddIndexed(&heap, &index, Value::Int(5));
  index.Erase(Value::Int(5), rid);
  EXPECT_TRUE(LookupAll(index, Value::Int(5)).empty());
}

TEST(HashIndexTest, TombstonesSlowProbes) {
  // The Fig. 8 mechanism: churn on the same keys leaves dead versions
  // in their probe runs under the PostgreSQL delete mode.
  auto churn = [](KeyHeap* heap, HashIndex* index) {
    for (int round = 0; round < 20; ++round) {
      std::vector<Rid> rids;
      for (int i = 0; i < 200; ++i) rids.push_back(AddIndexed(heap, index, Value::Int(i)));
      for (int i = 0; i < 200; ++i) index->Erase(Value::Int(i), rids[i]);
    }
  };
  KeyHeap pg_heap;
  HashIndex pg = pg_heap.Index(IndexDeleteMode::kTombstone);
  churn(&pg_heap, &pg);
  // Measure probe work for one lookup burst.
  uint64_t pg_steps = 0;
  std::vector<Rid> rids;
  for (int i = 0; i < 200; ++i) pg.Lookup(Value::Int(i), &rids, &pg_steps);
  EXPECT_EQ(rids.size(), 200u * 20) << "every dead version is returned";

  KeyHeap my_heap;
  HashIndex my = my_heap.Index(IndexDeleteMode::kErase);
  churn(&my_heap, &my);
  uint64_t my_steps = 0;
  for (int i = 0; i < 200; ++i) my.Lookup(Value::Int(i), &rids, &my_steps);

  EXPECT_GT(pg_steps, my_steps * 5) << "tombstones must dominate probe cost";
}

TEST(HashIndexTest, ClearDropsTombstones) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kTombstone);
  for (int i = 0; i < 100; ++i) {
    index.Erase(Value::Int(i), AddIndexed(&heap, &index, Value::Int(i)));
  }
  index.Clear();  // VACUUM rebuild path
  EXPECT_EQ(index.stats().tombstones, 0u);
  EXPECT_TRUE(LookupAll(index, Value::Int(1)).empty());
  AddIndexed(&heap, &index, Value::Int(1));
  EXPECT_EQ(LookupAll(index, Value::Int(1)).size(), 1u);
}

TEST(HashIndexTest, GrowthKeepsLookupsCorrect) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  EXPECT_EQ(index.slot_count(), 16u);
  std::vector<Rid> rids;
  for (int i = 0; i < 10000; ++i) rids.push_back(AddIndexed(&heap, &index, Value::Int(i)));
  EXPECT_GT(index.slot_count(), 16u);
  EXPECT_LE(index.stats().live_entries * 4, index.slot_count() * 3);
  for (int i = 0; i < 10000; i += 97) {
    const std::vector<Rid> found = LookupAll(index, Value::Int(i));
    ASSERT_EQ(found.size(), 1u) << i;
    EXPECT_EQ(found[0], rids[i]);
  }
}

TEST(HashIndexTest, EraseMissingIsNoop) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  const Rid rid = AddIndexed(&heap, &index, Value::Int(1));
  index.Erase(Value::Int(2), rid);       // wrong key
  index.Erase(Value::Int(1), R(0, 99));  // wrong rid
  EXPECT_EQ(LookupAll(index, Value::Int(1)).size(), 1u);
  EXPECT_EQ(index.stats().live_entries, 1u);
}

TEST(HashIndexTest, NumericKeysCrossTypeConsistent) {
  // Int(3) and Double(3.0) compare equal, so they must collide in the
  // index; NULL equals NULL; a string never equals a number.
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  AddIndexed(&heap, &index, Value::Int(3));
  AddIndexed(&heap, &index, Value::Null());
  EXPECT_EQ(LookupAll(index, Value::Double(3.0)).size(), 1u);
  EXPECT_EQ(LookupAll(index, Value::Timestamp(3)).size(), 1u);
  EXPECT_EQ(LookupAll(index, Value::Null()).size(), 1u);
  EXPECT_TRUE(LookupAll(index, Value::String("3")).empty());
}

TEST(HashIndexTest, NegativeZeroAndNaNKeysFindTheirRows) {
  // -0.0 equals 0.0, and NaN equals NaN, so each must land on the other.
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  const Rid zero = AddIndexed(&heap, &index, Value::Double(0.0));
  const Rid nan = AddIndexed(&heap, &index, Value::Double(std::nan("1")));
  EXPECT_EQ(LookupAll(index, Value::Double(-0.0)), std::vector<Rid>{zero});
  EXPECT_EQ(LookupAll(index, Value::Int(0)), std::vector<Rid>{zero});
  EXPECT_EQ(LookupAll(index, Value::Double(-std::nan("2"))), std::vector<Rid>{nan});
}

TEST(HashIndexTest, RunWrapsPastTheEndAndShiftsBackOnErase) {
  // Four keys whose home is the last of the 16 slots fill slots 15, 0, 1
  // and 2; a key whose home is slot 0 lands behind them, in slot 3. A
  // lookup stops at its key's slot, so its probe steps tell where the key
  // lies; a lookup of an absent key walks the whole run.
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  const std::vector<Value> home15 = KeysWithHome(15, 16, 5);
  const std::vector<Value> wrap(home15.begin(), home15.begin() + 4);
  const Value absent = home15[4];
  const Value zero = KeysWithHome(0, 16, 1)[0];
  std::vector<Rid> rids;
  for (const Value& k : wrap) rids.push_back(AddIndexed(&heap, &index, k));
  const Rid zero_rid = AddIndexed(&heap, &index, zero);
  ASSERT_EQ(index.slot_count(), 16u);
  for (std::size_t i = 0; i < wrap.size(); ++i) {
    EXPECT_EQ(ProbeSteps(index, wrap[i]), i + 1) << i;  // slot 15, then 0, 1, 2
    const std::vector<Rid> found = LookupAll(index, wrap[i]);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], rids[i]);
  }
  EXPECT_EQ(ProbeSteps(index, zero), 4u);    // slots 0, 1, 2, 3
  EXPECT_EQ(ProbeSteps(index, absent), 5u);  // slots 15, 0, 1, 2, 3

  // Erasing the entry in slot 15 shifts the three wrapped entries back
  // across the end of the array, and the slot-0 key into slot 2.
  index.Erase(wrap[0], rids[0]);
  EXPECT_TRUE(LookupAll(index, wrap[0]).empty());
  EXPECT_EQ(ProbeSteps(index, wrap[1]), 1u);  // slot 15
  EXPECT_EQ(ProbeSteps(index, wrap[3]), 3u);  // slot 1
  EXPECT_EQ(ProbeSteps(index, zero), 3u);     // slots 0, 1, 2
  EXPECT_EQ(ProbeSteps(index, absent), 4u);
  // Erasing from the middle of the run (now in slot 0) shifts the rest.
  index.Erase(wrap[2], rids[2]);
  EXPECT_EQ(ProbeSteps(index, wrap[3]), 2u);  // slot 0
  EXPECT_EQ(ProbeSteps(index, zero), 2u);     // slots 0, 1
  EXPECT_EQ(ProbeSteps(index, absent), 3u);
  for (std::size_t i : {1u, 3u}) {
    const std::vector<Rid> found = LookupAll(index, wrap[i]);
    ASSERT_EQ(found.size(), 1u) << i;
    EXPECT_EQ(found[0], rids[i]);
  }
  const std::vector<Rid> found = LookupAll(index, zero);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], zero_rid);
  // The slot-0 key is back in its home slot once the run has drained.
  index.Erase(wrap[1], rids[1]);
  index.Erase(wrap[3], rids[3]);
  EXPECT_EQ(ProbeSteps(index, zero), 1u);
  EXPECT_EQ(ProbeSteps(index, absent), 0u);
  EXPECT_EQ(index.stats().live_entries, 1u);
}

TEST(HashIndexTest, ManyRowsUnderOneKeyCostO1PerInsertAndErase) {
  // The RLI's t_map.lrc_id index holds one key per LRC, each for every
  // mapping of that LRC. Each insert and erase must cost a bounded number
  // of probe steps however many rows share the key, and a lookup of
  // another key must not walk those rows.
  constexpr int kRows = 100000;
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase);
  std::vector<Rid> others;
  for (int i = 0; i < 100; ++i) others.push_back(AddIndexed(&heap, &index, Value::Int(i)));
  const Value lrc = Value::String("rls://lrc-0");
  std::vector<Rid> rids;
  uint64_t before = index.stats().probe_steps;
  for (int i = 0; i < kRows; ++i) rids.push_back(AddIndexed(&heap, &index, lrc));
  EXPECT_LE(index.stats().probe_steps - before, 4u * kRows) << "steps for all inserts";
  EXPECT_LE(index.slot_count(), 256u) << "101 keys, one slot each";
  EXPECT_EQ(LookupAll(index, lrc), rids) << "rows come back in insertion order";
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(ProbeSteps(index, Value::Int(i)), 8u) << i;
    EXPECT_EQ(LookupAll(index, Value::Int(i)), std::vector<Rid>{others[i]});
  }

  // Erase in an order unrelated to insertion; an erase moves the key's
  // last row into the gap.
  std::vector<std::size_t> order(kRows);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = (i * 7919) % kRows;
  index.Erase(lrc, rids[order[0]]);
  std::vector<Rid> expected = rids;
  expected[order[0]] = expected.back();
  expected.pop_back();
  EXPECT_EQ(LookupAll(index, lrc), expected);
  before = index.stats().probe_steps;
  for (int i = 1; i < kRows; ++i) index.Erase(lrc, rids[order[i]]);
  EXPECT_LE(index.stats().probe_steps - before, 4u * kRows) << "steps for all erases";
  EXPECT_TRUE(LookupAll(index, lrc).empty());
  EXPECT_EQ(index.stats().live_entries, 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(LookupAll(index, Value::Int(i)), std::vector<Rid>{others[i]});
  }
}

TEST(HashIndexTest, TombstoneModeKeepsDeadRowsUnderTheirKey) {
  // A unique key deleted and re-added three times: every version stays
  // under the key until Clear(), and only the live one blocks an insert.
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kTombstone, /*unique=*/true);
  const Value key = Value::String("lfn://churned");
  std::vector<Rid> versions;
  for (int i = 0; i < 3; ++i) {
    versions.push_back(AddIndexed(&heap, &index, key));
    EXPECT_FALSE(index.Insert(key, heap.Add(key))) << "a live version exists";
    index.Erase(key, versions.back());
    EXPECT_FALSE(index.ContainsKey(key));
  }
  versions.push_back(AddIndexed(&heap, &index, key));
  EXPECT_TRUE(index.ContainsKey(key));
  EXPECT_EQ(LookupAll(index, key), versions);
  EXPECT_EQ(index.stats().tombstones, 3u);
  EXPECT_EQ(index.stats().live_entries, 1u);
  index.Erase(key, versions[0]);  // already dead: a no-op
  EXPECT_EQ(index.stats().tombstones, 3u);
  index.Clear();
  EXPECT_TRUE(LookupAll(index, key).empty());
}

TEST(HashIndexTest, TombstonesSurviveGrowthUntilClear) {
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kTombstone);
  std::vector<Rid> dead;
  for (int i = 0; i < 6; ++i) {
    dead.push_back(AddIndexed(&heap, &index, Value::Int(i)));
    index.Erase(Value::Int(i), dead.back());
  }
  // Dead entries count toward the 3/4 load: six dead and six live fill
  // 12 of the 16 slots, and the thirteenth entry doubles the array.
  for (int i = 100; i < 106; ++i) AddIndexed(&heap, &index, Value::Int(i));
  EXPECT_EQ(index.slot_count(), 16u);
  AddIndexed(&heap, &index, Value::Int(106));
  EXPECT_EQ(index.slot_count(), 32u);
  for (int i = 107; i < 200; ++i) AddIndexed(&heap, &index, Value::Int(i));
  EXPECT_GE(index.slot_count(), 128u);

  // Growth carried every dead entry over: each is still returned.
  EXPECT_EQ(index.stats().tombstones, 6u);
  for (int i = 0; i < 6; ++i) {
    const std::vector<Rid> found = LookupAll(index, Value::Int(i));
    ASSERT_EQ(found.size(), 1u) << i;
    EXPECT_EQ(found[0], dead[i]);
    EXPECT_FALSE(index.ContainsKey(Value::Int(i)));
  }
  index.Clear();
  EXPECT_EQ(index.stats().tombstones, 0u);
  EXPECT_EQ(index.stats().live_entries, 0u);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(LookupAll(index, Value::Int(i)).empty());
}

TEST(HashIndexTest, MalformedRowsReadAsNoMatch) {
  // A rid whose row bytes cannot be read never matches: a string whose
  // length runs past the row, an unknown tag, and a row that ends before
  // the indexed column.
  KeyHeap heap;
  HashIndex index = heap.Index(IndexDeleteMode::kErase, /*unique=*/true);
  std::string long_string;
  Value::Int(0).Encode(&long_string);
  long_string += std::string("\x03\xff\xff\xff\x7f", 5) + "x";
  std::string bad_tag;
  Value::Int(0).Encode(&bad_tag);
  bad_tag += "\x7fx";
  std::string short_row;
  Value::Int(0).Encode(&short_row);
  const Value key = Value::String("x");
  for (const std::string& bytes : {long_string, bad_tag, short_row}) {
    ASSERT_TRUE(index.Insert(key, heap.AddRaw(bytes)));  // no live equal key
  }
  EXPECT_TRUE(LookupAll(index, key).empty());
  EXPECT_FALSE(index.ContainsKey(key));
  const Rid good = heap.Add(key);
  EXPECT_TRUE(index.Insert(key, good));
  const std::vector<Rid> found = LookupAll(index, key);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], good);
}

TEST(EncodedColumnEqualsTest, TruncatedRowsNeverMatchOrOverread) {
  // Every proper prefix of an encoded row is copied into a buffer of
  // exactly its size, so a read past its end trips AddressSanitizer.
  const Value name = Value::String("lfn://a-name-long-enough-for-the-heap");
  std::string row;
  EncodeRow({Value::Int(42), name}, &row);
  for (std::size_t n = 0; n <= row.size(); ++n) {
    auto buf = std::make_unique<char[]>(n);
    std::memcpy(buf.get(), row.data(), n);
    const std::string_view bytes(buf.get(), n);
    EXPECT_EQ(EncodedColumnEquals(bytes, 1, name), n == row.size()) << n;
    EXPECT_EQ(EncodedColumnEquals(bytes, 0, Value::Int(42)), n >= 9) << n;
    EXPECT_FALSE(EncodedColumnEquals(bytes, 2, name)) << n;
  }
}

TEST(ValueTest, EqualsEncodedAgreesWithCompare) {
  const Value values[] = {Value::Null(),      Value::Int(3),       Value::Double(3.0),
                          Value::Timestamp(3), Value::Int(-1),      Value::Double(2.5),
                          Value::String(""),  Value::String("3"),  Value::String("abc"),
                          Value::Int(0),      Value::Double(-0.0), Value::Double(std::nan(""))};
  for (const Value& a : values) {
    for (const Value& b : values) {
      std::string bytes;
      b.Encode(&bytes);
      EXPECT_EQ(a.EqualsEncoded(bytes), a.Compare(b) == 0)
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(OrderedIndexTest, RangeQueries) {
  OrderedIndex index;
  for (int i = 0; i < 100; ++i) index.Insert(Value::Timestamp(i * 10), R(0, i));
  std::vector<Rid> rids;
  index.LookupLess(Value::Timestamp(50), &rids);
  EXPECT_EQ(rids.size(), 5u);  // 0,10,20,30,40
  rids.clear();
  index.LookupRange(Value::Timestamp(30), Value::Timestamp(60), &rids);
  EXPECT_EQ(rids.size(), 4u);  // 30,40,50,60
}

TEST(OrderedIndexTest, EqualKeyLookup) {
  OrderedIndex index;
  index.Insert(Value::Int(5), R(0, 0));
  index.Insert(Value::Int(5), R(0, 1));
  index.Insert(Value::Int(6), R(0, 2));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(5), &rids);
  EXPECT_EQ(rids.size(), 2u);
}

TEST(OrderedIndexTest, EraseSpecificEntry) {
  OrderedIndex index;
  index.Insert(Value::Int(5), R(0, 0));
  index.Insert(Value::Int(5), R(0, 1));
  index.Erase(Value::Int(5), R(0, 0));
  std::vector<Rid> rids;
  index.Lookup(Value::Int(5), &rids);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], R(0, 1));
}

TEST(OrderedIndexTest, WalksNaNAboveEveryNumber) {
  // NaN can arrive from the wire as a float attribute; the multimap
  // needs a strict weak order to keep its keys sorted.
  OrderedIndex index;
  const double keys[] = {3, std::nan(""), 1, -0.0, 2, std::nan(""), -1, 1e308};
  for (std::size_t i = 0; i < std::size(keys); ++i) {
    index.Insert(Value::Double(keys[i]), R(0, static_cast<uint16_t>(i)));
  }
  std::vector<uint16_t> walked;
  index.Walk([&](Rid rid) {
    walked.push_back(rid.slot);
    return true;
  });
  // -1, -0.0, 1, 2, 3, 1e308, then both NaNs in insertion order.
  EXPECT_EQ(walked, (std::vector<uint16_t>{6, 3, 2, 4, 0, 7, 1, 5}));
  std::vector<Rid> rids;
  index.Lookup(Value::Double(std::nan("")), &rids);
  EXPECT_EQ(rids, (std::vector<Rid>{R(0, 1), R(0, 5)}));
}

TEST(ValueTest, HashAgreesWithCompareOnZeroAndNaN) {
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Double(0.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Int(0).Hash());
  EXPECT_EQ(Value::Double(-0.0).Compare(Value::Int(0)), 0);
  const Value nan = Value::Double(std::nan(""));
  EXPECT_EQ(nan.Hash(), Value::Double(-std::nan("7")).Hash());
  EXPECT_EQ(nan.Compare(Value::Double(std::nan("7"))), 0);
  EXPECT_GT(nan.Compare(Value::Double(1e308)), 0);
  EXPECT_LT(Value::Int(INT64_MAX).Compare(nan), 0);
  EXPECT_LT(nan.Compare(Value::String("")), 0) << "strings still sort last";
  EXPECT_GT(nan.Compare(Value::Null()), 0);
}

TEST(ValueTest, CompareOrdering) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Double(9.5).Compare(Value::String("a")), 0);  // numbers < strings
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  const Value values[] = {Value::Null(), Value::Int(-42), Value::Double(3.25),
                          Value::String("hello"), Value::Timestamp(123456789)};
  for (const Value& v : values) {
    std::string bytes;
    v.Encode(&bytes);
    std::string_view view = bytes;
    Value decoded;
    ASSERT_TRUE(Value::Decode(&view, &decoded).ok());
    EXPECT_TRUE(view.empty());
    EXPECT_EQ(decoded.Compare(v), 0);
    EXPECT_EQ(decoded.is_timestamp(), v.is_timestamp());
  }
}

}  // namespace
}  // namespace rdb
