// Property tests for the storage engine: random operation sequences
// against an in-memory reference model, under BOTH backend profiles,
// with interleaved VACUUMs — plus WAL recovery idempotence: replaying
// the log (once, twice, or with commits in between) never diverges
// from the model.
#include <gtest/gtest.h>

#include <unistd.h>

#include <map>
#include <string>

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
  ASSERT_TRUE(table.CreateIndex("pk", "id", IndexKind::kHash, true).ok());
  ASSERT_TRUE(table.CreateIndex("by_key", "key", IndexKind::kHash, true).ok());

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
    const std::string key = "k" + std::to_string(rng.Below(40));
    switch (rng.Below(5)) {
      case 0: {  // insert
        Rid rid;
        int64_t id = 0;
        const int64_t value = static_cast<int64_t>(rng.Below(1000));
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
          const int64_t fresh = static_cast<int64_t>(rng.Below(1000));
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
        if (rng.Below(10) == 0) table.Vacuum();
        break;
      }
    }
  }

  // Final sweep: model and table agree exactly.
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
    Table* table = db->GetTable("kv");
    ASSERT_TRUE(table->CreateIndex("pk", "id", IndexKind::kHash, true).ok());
    ASSERT_TRUE(table->CreateIndex("by_key", "key", IndexKind::kHash, true).ok());
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
      const std::string key = "k" + std::to_string(rng->Below(30));
      const int64_t value = static_cast<int64_t>(rng->Below(1000));
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
    lsn_after_replay = db.wal().last_lsn();
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(Dump(&db), model) << "double replay diverged, seed " << seed;
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
  }
  ::unlink(wal.c_str());
  ::unlink((wal + ".ckpt").c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryIdempotenceProperty,
                         ::testing::Values(11, 77, 1234));

}  // namespace
}  // namespace rdb
