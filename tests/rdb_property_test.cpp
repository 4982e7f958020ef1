// Property tests for the storage engine: random operation sequences
// against an in-memory reference model, under BOTH backend profiles,
// with interleaved VACUUMs — plus WAL recovery idempotence: replaying
// the log (once, twice, or with commits in between) never diverges
// from the model. Both check every hash index against the heap rows as
// they go.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rdb/database.h"
#include "rdb/wal_record.h"

namespace rdb {
namespace {

TableSchema KvSchema() {
  return TableSchema("kv", {
      ColumnDef{"id", ColumnType::kInt, false, true, 0},
      ColumnDef{"key", ColumnType::kVarchar, false, false, 100},
      ColumnDef{"value", ColumnType::kInt, true, false, 0},
  });
}

/// The model table's indexes: both unique columns, and `value`, whose
/// small range gives its non-unique index many rows per key.
void CreateKvIndexes(Table* table) {
  ASSERT_TRUE(table->CreateIndex("pk", "id", IndexKind::kHash, true).ok());
  ASSERT_TRUE(table->CreateIndex("by_key", "key", IndexKind::kHash, true).ok());
  ASSERT_TRUE(table->CreateIndex("by_value", "value", IndexKind::kHash, false).ok());
}

constexpr uint64_t kKeys = 400;   // ~200 live rows: the id and key indexes grow 16 -> 256+ slots
constexpr uint64_t kValues = 32;  // many rows per `value` key

/// Index/heap agreement: for every hash index of `table` and every key
/// the heap holds in that column, a lookup returns exactly the rows
/// holding it — the live ones, plus the dead ones under the tombstone
/// mode — so every live row is found through every index. ContainsKey
/// sees the live rows only, the entry counts match the heap, and the
/// keys the index holds (one slot each, however many rows) fill at most
/// 3/4 of its slots.
::testing::AssertionResult IndexesMatchHeap(const Table& table) {
  const TableSchema& schema = table.schema();
  for (std::size_t column = 0; column < schema.num_columns(); ++column) {
    const std::string& name = schema.columns()[column].name;
    const HashIndex* index = table.FindHashIndex(name);
    if (!index) continue;
    const bool tombstones = index->delete_mode() == IndexDeleteMode::kTombstone;
    std::map<Value, std::pair<std::vector<Rid>, std::vector<Rid>>> rows;  // live, dead
    std::size_t live = 0, dead = 0;
    bool read_ok = true;
    table.Scan([&](Rid rid, SlotState st) {
      Row row;
      if (!table.ReadRow(rid, &row).ok()) {
        read_ok = false;
        return false;
      }
      auto& [live_rids, dead_rids] = rows[row[column]];
      if (st == SlotState::kLive) {
        live_rids.push_back(rid);
        ++live;
      } else {
        dead_rids.push_back(rid);
        ++dead;
      }
      return true;
    });
    if (!read_ok) return ::testing::AssertionFailure() << "unreadable row";
    std::size_t keys = 0;  // keys the index holds: one slot each
    for (auto& [key, live_and_dead] : rows) {
      auto& [expected, dead_rids] = live_and_dead;
      const bool has_live = !expected.empty();
      if (tombstones) expected.insert(expected.end(), dead_rids.begin(), dead_rids.end());
      if (!expected.empty()) ++keys;
      std::vector<Rid> got;
      index->Lookup(key, &got);
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      if (got != expected) {
        return ::testing::AssertionFailure()
               << "index on " << name << ": lookup of " << key.ToString() << " returned "
               << got.size() << " rids, the heap holds " << expected.size();
      }
      if (index->ContainsKey(key) != has_live) {
        return ::testing::AssertionFailure()
               << "index on " << name << ": ContainsKey(" << key.ToString()
               << ") != " << has_live;
      }
    }
    const IndexStats& stats = index->stats();
    if (stats.live_entries != live || stats.tombstones != (tombstones ? dead : 0)) {
      return ::testing::AssertionFailure()
             << "index on " << name << " counts " << stats.live_entries << " live and "
             << stats.tombstones << " dead entries; the heap holds " << live << " live and "
             << dead << " dead rows";
    }
    if (keys * 4 > index->slot_count() * 3) {
      return ::testing::AssertionFailure() << "index on " << name << " holds " << keys
                                           << " keys in " << index->slot_count() << " slots";
    }
  }
  return ::testing::AssertionSuccess();
}

struct Model {
  // key -> (id, value); unique key index semantics.
  std::map<std::string, std::pair<int64_t, int64_t>> rows;
};

class RdbModelProperty
    : public ::testing::TestWithParam<std::tuple<BackendKind, uint64_t>> {};

TEST_P(RdbModelProperty, RandomOpsMatchModel) {
  auto [kind, seed] = GetParam();
  BackendProfile profile;
  profile.kind = kind;
  Table table(KvSchema(), &profile);
  CreateKvIndexes(&table);

  Model model;
  rlscommon::Xoshiro256 rng(seed);

  auto find_rid = [&](const std::string& key, Rid* rid) {
    std::vector<Rid> rids;
    table.FindHashIndex("key")->Lookup(Value::String(key), &rids);
    for (Rid r : rids) {
      if (table.IsLive(r)) {
        *rid = r;
        return true;
      }
    }
    return false;
  };

  for (int step = 0; step < 3000; ++step) {
    const std::string key = "k" + std::to_string(rng.Below(kKeys));
    switch (rng.Below(5)) {
      case 0: {  // insert
        Rid rid;
        int64_t id = 0;
        const int64_t value = static_cast<int64_t>(rng.Below(kValues));
        rlscommon::Status s = table.Insert({Value::Null(), Value::String(key), Value::Int(value)},
                                &rid, &id);
        const bool expect_ok = !model.rows.count(key);
        ASSERT_EQ(s.ok(), expect_ok) << "step " << step << " key " << key;
        if (expect_ok) model.rows[key] = {id, value};
        break;
      }
      case 1: {  // delete
        Rid rid;
        const bool present = find_rid(key, &rid);
        ASSERT_EQ(present, model.rows.count(key) > 0) << "step " << step;
        if (present) {
          ASSERT_TRUE(table.Delete(rid).ok());
          model.rows.erase(key);
        }
        break;
      }
      case 2: {  // update value
        Rid rid;
        if (find_rid(key, &rid)) {
          Row row;
          ASSERT_TRUE(table.ReadRow(rid, &row).ok());
          const int64_t fresh = static_cast<int64_t>(rng.Below(kValues));
          row[2] = Value::Int(fresh);
          Rid new_rid;
          ASSERT_TRUE(table.Update(rid, row, &new_rid).ok());
          model.rows[key].second = fresh;
        }
        break;
      }
      case 3: {  // point read
        Rid rid;
        const bool present = find_rid(key, &rid);
        ASSERT_EQ(present, model.rows.count(key) > 0) << "step " << step;
        if (present) {
          Row row;
          ASSERT_TRUE(table.ReadRow(rid, &row).ok());
          EXPECT_EQ(row[0].AsInt(), model.rows[key].first);
          EXPECT_EQ(row[2].AsInt(), model.rows[key].second);
        }
        break;
      }
      case 4: {  // occasional vacuum
        if (rng.Below(10) == 0) {
          table.Vacuum();
          ASSERT_TRUE(IndexesMatchHeap(table)) << "after vacuum, step " << step;
        }
        break;
      }
    }
    if (step % 10 == 0) {
      ASSERT_TRUE(IndexesMatchHeap(table)) << "step " << step;
    }
  }

  // Final sweep: model and table agree exactly.
  ASSERT_TRUE(IndexesMatchHeap(table));
  EXPECT_GE(table.FindHashIndex("key")->slot_count(), 256u);
  EXPECT_EQ(table.live_rows(), model.rows.size());
  for (const auto& [key, expected] : model.rows) {
    Rid rid;
    ASSERT_TRUE(find_rid(key, &rid)) << key;
    Row row;
    ASSERT_TRUE(table.ReadRow(rid, &row).ok());
    EXPECT_EQ(row[0].AsInt(), expected.first) << key;
    EXPECT_EQ(row[2].AsInt(), expected.second) << key;
  }
  table.Vacuum();
  EXPECT_EQ(table.live_rows(), model.rows.size());
  EXPECT_EQ(table.dead_rows(), 0u);
  EXPECT_TRUE(IndexesMatchHeap(table));
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSeeds, RdbModelProperty,
    ::testing::Combine(::testing::Values(BackendKind::kMySQL,
                                         BackendKind::kPostgreSQL),
                       ::testing::Values(101, 202, 303)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == BackendKind::kMySQL ? "MySQL"
                                                                        : "PostgreSQL") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// Ordered-index invariant: LookupLess == brute-force filter, under churn.
class OrderedIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderedIndexProperty, RangeAgreesWithBruteForce) {
  OrderedIndex index;
  std::multimap<int64_t, Rid> model;
  rlscommon::Xoshiro256 rng(GetParam());
  for (int step = 0; step < 2000; ++step) {
    const int64_t key = static_cast<int64_t>(rng.Below(500));
    const Rid rid{static_cast<uint32_t>(step), 0};
    if (rng.Below(3) != 0) {
      index.Insert(Value::Timestamp(key), rid);
      model.emplace(key, rid);
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Below(model.size())));
      index.Erase(Value::Timestamp(it->first), it->second);
      model.erase(it);
    }
    if (step % 100 == 0) {
      const int64_t bound = static_cast<int64_t>(rng.Below(600));
      std::vector<Rid> got;
      index.LookupLess(Value::Timestamp(bound), &got);
      std::size_t expected = 0;
      for (const auto& [k, r] : model) {
        if (k < bound) ++expected;
      }
      ASSERT_EQ(got.size(), expected) << "step " << step << " bound " << bound;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedIndexProperty, ::testing::Values(5, 55, 555));

// --------------------------------------------------------------------
// WAL recovery idempotence: a random committed workload, logged through
// the recovery WAL (with checkpoint wraps), replays to exactly the
// model — and replaying again, or replaying then committing more and
// replaying once more, never diverges.
// --------------------------------------------------------------------

class RecoveryIdempotenceProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  using KvModel = std::map<std::string, std::pair<int64_t, int64_t>>;

  static BackendProfile RecoveryProfile() {
    BackendProfile profile = BackendProfile::MySQL();
    profile.wal_recovery = true;
    profile.wal_recycle_bytes = 4096;  // force several checkpoint wraps
    return profile;
  }

  static void InitSchema(Database* db) {
    ASSERT_TRUE(db->CreateTable(KvSchema()).ok());
    CreateKvIndexes(db->GetTable("kv"));
  }

  /// Runs `steps` random mutations, logging each as one committed
  /// transaction (the sql layer's behavior, without the sql layer).
  static void RunOps(Database* db, rlscommon::Xoshiro256* rng, int steps,
                     KvModel* model) {
    Table* table = db->GetTable("kv");
    auto find_row = [&](const std::string& key, Rid* rid, Row* row) {
      std::vector<Rid> rids;
      table->FindHashIndex("key")->Lookup(Value::String(key), &rids);
      for (Rid r : rids) {
        if (table->IsLive(r) && table->ReadRow(r, row).ok()) {
          *rid = r;
          return true;
        }
      }
      return false;
    };
    for (int step = 0; step < steps; ++step) {
      const std::string key = "k" + std::to_string(rng->Below(kKeys));
      const int64_t value = static_cast<int64_t>(rng->Below(kValues));
      std::string payload;
      switch (rng->Below(4)) {
        case 0:
        case 1: {  // insert fresh keys
          if (model->count(key)) continue;
          int64_t id = 0;
          ASSERT_TRUE(table
                          ->Insert({Value::Null(), Value::String(key),
                                    Value::Int(value)},
                                   nullptr, &id)
                          .ok());
          (*model)[key] = {id, value};
          AppendInsertRecord(
              "kv", {Value::Int(id), Value::String(key), Value::Int(value)},
              &payload);
          break;
        }
        case 2: {  // update
          Rid rid;
          Row old_row;
          if (!find_row(key, &rid, &old_row)) continue;
          Row new_row = old_row;
          new_row[2] = Value::Int(value);
          Rid new_rid;
          ASSERT_TRUE(table->Update(rid, new_row, &new_rid).ok());
          (*model)[key].second = value;
          AppendUpdateRecord("kv", old_row, new_row, &payload);
          break;
        }
        default: {  // delete
          Rid rid;
          Row old_row;
          if (!find_row(key, &rid, &old_row)) continue;
          ASSERT_TRUE(table->Delete(rid).ok());
          model->erase(key);
          AppendDeleteRecord("kv", old_row, &payload);
          break;
        }
      }
      if (!payload.empty()) {
        ASSERT_TRUE(db->wal().Commit(payload, true, {}).ok());
        // Where the engine would: a batch past the recycle threshold
        // leaves its checkpoint to the next quiescent point.
        ASSERT_TRUE(db->MaybeCheckpoint().ok());
      }
    }
  }

  static KvModel Dump(Database* db) {
    KvModel out;
    const Table* table = db->GetTable("kv");
    table->Scan([&](Rid rid, SlotState st) {
      if (st != SlotState::kLive) return true;
      Row row;
      if (table->ReadRow(rid, &row).ok()) {
        out[row[1].AsString()] = {row[0].AsInt(), row[2].AsInt()};
      }
      return true;
    });
    return out;
  }
};

TEST_P(RecoveryIdempotenceProperty, ReplayNeverDiverges) {
  const uint64_t seed = GetParam();
  const std::string wal = ::testing::TempDir() + "/rls_recprop_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(seed) + ".wal";
  ::unlink(wal.c_str());
  ::unlink((wal + ".ckpt").c_str());
  rlscommon::Xoshiro256 rng(seed);
  KvModel model;

  {  // Committed workload (several checkpoint wraps at 4 KB recycle).
    Database db("prop", RecoveryProfile(), wal);
    InitSchema(&db);
    ASSERT_TRUE(db.Recover().ok());
    RunOps(&db, &rng, 1500, &model);
    EXPECT_GE(db.wal().checkpoints(), 1u);
  }

  uint64_t lsn_after_replay = 0;
  {  // Replay equals the model; a second Recover() is a no-op.
    Database db("prop", RecoveryProfile(), wal);
    InitSchema(&db);
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(Dump(&db), model) << "seed " << seed;
    EXPECT_TRUE(IndexesMatchHeap(*db.GetTable("kv"))) << "after replay, seed " << seed;
    lsn_after_replay = db.wal().last_lsn();
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(Dump(&db), model) << "double replay diverged, seed " << seed;
    EXPECT_TRUE(IndexesMatchHeap(*db.GetTable("kv"))) << "after double replay";
    EXPECT_EQ(db.wal().last_lsn(), lsn_after_replay);
  }

  {  // Replay-then-commit: more work after recovery, then replay again.
    Database db("prop", RecoveryProfile(), wal);
    InitSchema(&db);
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_GE(db.wal().last_lsn(), lsn_after_replay);
    RunOps(&db, &rng, 500, &model);
  }
  {
    Database db("prop", RecoveryProfile(), wal);
    InitSchema(&db);
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(Dump(&db), model) << "replay-then-commit diverged, seed " << seed;
    EXPECT_TRUE(IndexesMatchHeap(*db.GetTable("kv"))) << "after the second replay";
  }
  ::unlink(wal.c_str());
  ::unlink((wal + ".ckpt").c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryIdempotenceProperty,
                         ::testing::Values(11, 77, 1234));

}  // namespace
}  // namespace rdb
