#include "sql/engine.h"

#include <gtest/gtest.h>

#include <memory>

namespace sql {
namespace {

using rdb::BackendProfile;
using rdb::Database;
using rdb::Value;
using rlscommon::ErrorCode;
using rlscommon::Status;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_("test", BackendProfile::MySQL()), engine_(&db_) {}

  ResultSet Exec(const std::string& sql, const std::vector<Value>& params = {}) {
    ResultSet rs;
    Status s = engine_.ExecuteSql(sql, params, &session_, &rs);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    return rs;
  }

  Status TryExec(const std::string& sql, const std::vector<Value>& params = {}) {
    ResultSet rs;
    return engine_.ExecuteSql(sql, params, &session_, &rs);
  }

  void CreateLfnTable() {
    Exec("CREATE TABLE t_lfn (id INT AUTO_INCREMENT PRIMARY KEY,"
         " name VARCHAR(250) NOT NULL, ref INT)");
    Exec("CREATE UNIQUE INDEX idx_name ON t_lfn (name)");
  }

  Database db_;
  Engine engine_;
  Session session_;
};

TEST_F(EngineTest, InsertSelectRoundTrip) {
  CreateLfnTable();
  ResultSet rs = Exec("INSERT INTO t_lfn (name, ref) VALUES ('a', 1)");
  EXPECT_EQ(rs.affected, 1u);
  EXPECT_EQ(rs.last_insert_id, 1);
  rs = Exec("SELECT * FROM t_lfn WHERE name = 'a'");
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt(), 1);
  EXPECT_EQ(rs.at(0, 1).AsString(), "a");
}

TEST_F(EngineTest, ParameterBinding) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES (?, ?)",
       {Value::String("param-name"), Value::Int(7)});
  ResultSet rs = Exec("SELECT ref FROM t_lfn WHERE name = ?",
                      {Value::String("param-name")});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt(), 7);
}

TEST_F(EngineTest, MissingParameterFails) {
  CreateLfnTable();
  auto s = TryExec("SELECT * FROM t_lfn WHERE name = ?");
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST_F(EngineTest, UniqueIndexRejectsDuplicates) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('dup', 0)");
  auto s = TryExec("INSERT INTO t_lfn (name, ref) VALUES ('dup', 0)");
  EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists);
}

TEST_F(EngineTest, MultiRowInsertIsAtomic) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('x', 0)");
  // Second row collides -> whole statement rolls back.
  auto s = TryExec("INSERT INTO t_lfn (name, ref) VALUES ('y', 0), ('x', 0)");
  EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists);
  ResultSet rs = Exec("SELECT COUNT(*) FROM t_lfn");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 1);
}

TEST_F(EngineTest, UpdateWithDeltaAndWhere) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('r', 5)");
  ResultSet rs = Exec("UPDATE t_lfn SET ref = ref + 1 WHERE name = 'r'");
  EXPECT_EQ(rs.affected, 1u);
  rs = Exec("SELECT ref FROM t_lfn WHERE name = 'r'");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 6);
  Exec("UPDATE t_lfn SET ref = ref - 2 WHERE name = 'r'");
  rs = Exec("SELECT ref FROM t_lfn WHERE name = 'r'");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 4);
}

TEST_F(EngineTest, DeleteByPredicate) {
  CreateLfnTable();
  for (int i = 0; i < 10; ++i) {
    Exec("INSERT INTO t_lfn (name, ref) VALUES (?, ?)",
         {Value::String("n" + std::to_string(i)), Value::Int(i)});
  }
  ResultSet rs = Exec("DELETE FROM t_lfn WHERE ref >= 5");
  EXPECT_EQ(rs.affected, 5u);
  rs = Exec("SELECT COUNT(*) FROM t_lfn");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 5);
}

TEST_F(EngineTest, TwoWayJoinThroughIndexes) {
  CreateLfnTable();
  Exec("CREATE TABLE t_map (lfn_id INT NOT NULL, pfn_id INT NOT NULL)");
  Exec("CREATE INDEX idx_map_lfn ON t_map (lfn_id)");
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('file1', 2)");
  Exec("INSERT INTO t_map (lfn_id, pfn_id) VALUES (1, 100), (1, 101)");
  ResultSet rs = Exec(
      "SELECT t_map.pfn_id FROM t_lfn JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " WHERE t_lfn.name = 'file1'");
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.at(0, 0).AsInt(), 100);
  EXPECT_EQ(rs.at(1, 0).AsInt(), 101);
}

TEST_F(EngineTest, ThreeWayJoinLikeLrcQuery) {
  // The exact query shape the LRC issues for replica lookups.
  CreateLfnTable();
  Exec("CREATE TABLE t_pfn (id INT AUTO_INCREMENT PRIMARY KEY,"
       " name VARCHAR(250) NOT NULL, ref INT)");
  Exec("CREATE UNIQUE INDEX idx_pfn_name ON t_pfn (name)");
  Exec("CREATE TABLE t_map (lfn_id INT NOT NULL, pfn_id INT NOT NULL)");
  Exec("CREATE INDEX idx_map_lfn ON t_map (lfn_id)");
  Exec("CREATE INDEX idx_map_pfn ON t_map (pfn_id)");
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('lfn1', 2)");
  Exec("INSERT INTO t_pfn (name, ref) VALUES ('pfnA', 1), ('pfnB', 1)");
  Exec("INSERT INTO t_map (lfn_id, pfn_id) VALUES (1, 1), (1, 2)");
  ResultSet rs = Exec(
      "SELECT t_pfn.name FROM t_lfn"
      " JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
      " WHERE t_lfn.name = 'lfn1'");
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "pfnA");
  EXPECT_EQ(rs.at(1, 0).AsString(), "pfnB");
}

TEST_F(EngineTest, LikePredicate) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('lfn://exp/run-001/f1', 0),"
       " ('lfn://exp/run-001/f2', 0), ('lfn://exp/run-002/f1', 0)");
  ResultSet rs = Exec("SELECT name FROM t_lfn WHERE name LIKE '%run-001%'");
  EXPECT_EQ(rs.size(), 2u);
  rs = Exec("SELECT name FROM t_lfn WHERE name LIKE 'lfn://exp/run-00_/f1'");
  EXPECT_EQ(rs.size(), 2u);
}

TEST_F(EngineTest, LimitStopsEarly) {
  CreateLfnTable();
  for (int i = 0; i < 20; ++i) {
    Exec("INSERT INTO t_lfn (name, ref) VALUES (?, 0)",
         {Value::String("n" + std::to_string(i))});
  }
  ResultSet rs = Exec("SELECT name FROM t_lfn LIMIT 5");
  EXPECT_EQ(rs.size(), 5u);
}

TEST_F(EngineTest, CountStar) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('a', 0), ('b', 0)");
  ResultSet rs = Exec("SELECT COUNT(*) FROM t_lfn");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 2);
  rs = Exec("SELECT COUNT(*) FROM t_lfn WHERE name = 'missing'");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 0);
}

TEST_F(EngineTest, TransactionCommit) {
  CreateLfnTable();
  Exec("BEGIN");
  EXPECT_TRUE(session_.in_transaction());
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('txn', 0)");
  Exec("COMMIT");
  EXPECT_FALSE(session_.in_transaction());
  ResultSet rs = Exec("SELECT COUNT(*) FROM t_lfn");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 1);
}

TEST_F(EngineTest, TransactionRollbackUndoesEverything) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('keep', 1)");
  Exec("BEGIN");
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('drop1', 0)");
  Exec("UPDATE t_lfn SET ref = ref + 10 WHERE name = 'keep'");
  Exec("DELETE FROM t_lfn WHERE name = 'keep'");
  Exec("ROLLBACK");
  ResultSet rs = Exec("SELECT name, ref FROM t_lfn");
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "keep");
  EXPECT_EQ(rs.at(0, 1).AsInt(), 1);
  // Indexes must be consistent after rollback.
  rs = Exec("SELECT COUNT(*) FROM t_lfn WHERE name = 'drop1'");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 0);
}

TEST_F(EngineTest, RollbackRestoresUniqueKeySlot) {
  CreateLfnTable();
  Exec("BEGIN");
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('ghost', 0)");
  Exec("ROLLBACK");
  // Must be insertable again.
  EXPECT_TRUE(TryExec("INSERT INTO t_lfn (name, ref) VALUES ('ghost', 0)").ok());
}

TEST_F(EngineTest, NestedBeginRejected) {
  Exec("BEGIN");
  EXPECT_FALSE(TryExec("BEGIN").ok());
  Exec("COMMIT");
}

TEST_F(EngineTest, CommitWithoutBeginRejected) {
  EXPECT_FALSE(TryExec("COMMIT").ok());
  EXPECT_FALSE(TryExec("ROLLBACK").ok());
}

TEST_F(EngineTest, OrderedIndexDrivesRangeDelete) {
  Exec("CREATE TABLE t_map (lfn_id INT, lrc_id INT, updatetime TIMESTAMP)");
  Exec("CREATE ORDERED INDEX idx_time ON t_map (updatetime)");
  for (int i = 0; i < 10; ++i) {
    Exec("INSERT INTO t_map (lfn_id, lrc_id, updatetime) VALUES (?, 1, ?)",
         {Value::Int(i), Value::Timestamp(i * 1000)});
  }
  ResultSet rs = Exec("DELETE FROM t_map WHERE updatetime < ?",
                      {Value::Timestamp(5000)});
  EXPECT_EQ(rs.affected, 5u);
  rs = Exec("SELECT COUNT(*) FROM t_map");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 5);
}

// Ascending ORDER BY an ordered-index column of one unfiltered table
// walks the index: the rows come out as the sort gives them, with LIMIT
// and OFFSET, and a row moves with its updated key.
TEST_F(EngineTest, OrderByOrderedIndexColumnMatchesSort) {
  Exec("CREATE TABLE t_map (lfn_id INT, lrc_id INT, updatetime TIMESTAMP)");
  Exec("CREATE ORDERED INDEX idx_time ON t_map (updatetime)");
  for (int i : {7, 3, 9, 1, 5}) {
    Exec("INSERT INTO t_map (lfn_id, lrc_id, updatetime) VALUES (?, 1, ?)",
         {Value::Int(i), Value::Timestamp(i * 1000)});
  }
  Exec("UPDATE t_map SET updatetime = ? WHERE lfn_id = ?",
       {Value::Timestamp(10000), Value::Int(1)});
  auto ids = [&](const std::string& sql) {
    std::vector<int64_t> out;
    for (const auto& row : Exec(sql).rows) out.push_back(row[0].AsInt());
    return out;
  };
  EXPECT_EQ(ids("SELECT lfn_id FROM t_map ORDER BY updatetime"),
            (std::vector<int64_t>{3, 5, 7, 9, 1}));
  EXPECT_EQ(ids("SELECT lfn_id FROM t_map ORDER BY updatetime LIMIT 2"),
            (std::vector<int64_t>{3, 5}));
  EXPECT_EQ(ids("SELECT lfn_id FROM t_map ORDER BY updatetime LIMIT 2 OFFSET 3"),
            (std::vector<int64_t>{9, 1}));
  EXPECT_EQ(ids("SELECT lfn_id FROM t_map ORDER BY updatetime DESC LIMIT 1"),
            (std::vector<int64_t>{1}));
}

TEST_F(EngineTest, SelectFromMissingTableFails) {
  auto s = TryExec("SELECT * FROM nope");
  EXPECT_EQ(s.code(), ErrorCode::kDatabase);
}

TEST_F(EngineTest, AmbiguousColumnRejected) {
  Exec("CREATE TABLE a (id INT, v INT)");
  Exec("CREATE TABLE b (id INT, w INT)");
  Exec("INSERT INTO a (id, v) VALUES (1, 1)");
  Exec("INSERT INTO b (id, w) VALUES (1, 2)");
  auto s = TryExec("SELECT id FROM a JOIN b ON a.id = b.id");
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST_F(EngineTest, VacuumThroughSql) {
  db_.SetDurableFlush(false);
  Exec("CREATE TABLE t (id INT)");
  Exec("INSERT INTO t (id) VALUES (1), (2), (3)");
  Exec("DELETE FROM t WHERE id >= 2");
  Exec("VACUUM t");
  ResultSet rs = Exec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 1);
}

TEST_F(EngineTest, NullComparisonsAreNotTrue) {
  Exec("CREATE TABLE t (id INT, v INT)");
  Exec("INSERT INTO t (id, v) VALUES (1, NULL), (2, 5)");
  ResultSet rs = Exec("SELECT id FROM t WHERE v < 10");
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt(), 2);
  rs = Exec("SELECT id FROM t WHERE v != 5");
  EXPECT_EQ(rs.size(), 0u);
}


TEST_F(EngineTest, OrderByAscAndDesc) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('b', 2), ('a', 3), ('c', 1)");
  ResultSet rs = Exec("SELECT name FROM t_lfn ORDER BY name");
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "a");
  EXPECT_EQ(rs.at(2, 0).AsString(), "c");
  rs = Exec("SELECT name FROM t_lfn ORDER BY ref DESC");
  EXPECT_EQ(rs.at(0, 0).AsString(), "a");   // ref 3
  EXPECT_EQ(rs.at(2, 0).AsString(), "c");   // ref 1
}

TEST_F(EngineTest, OrderByWithLimitAndOffset) {
  CreateLfnTable();
  for (int i = 0; i < 10; ++i) {
    Exec("INSERT INTO t_lfn (name, ref) VALUES (?, ?)",
         {Value::String("n" + std::to_string(i)), Value::Int(i)});
  }
  ResultSet rs = Exec("SELECT ref FROM t_lfn ORDER BY ref LIMIT 3 OFFSET 4");
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs.at(0, 0).AsInt(), 4);
  EXPECT_EQ(rs.at(2, 0).AsInt(), 6);
}

TEST_F(EngineTest, OffsetWithoutOrder) {
  CreateLfnTable();
  for (int i = 0; i < 5; ++i) {
    Exec("INSERT INTO t_lfn (name, ref) VALUES (?, 0)",
         {Value::String("o" + std::to_string(i))});
  }
  ResultSet rs = Exec("SELECT name FROM t_lfn OFFSET 3");
  EXPECT_EQ(rs.size(), 2u);
  rs = Exec("SELECT name FROM t_lfn LIMIT 2 OFFSET 1");
  EXPECT_EQ(rs.size(), 2u);
  rs = Exec("SELECT name FROM t_lfn OFFSET 99");
  EXPECT_EQ(rs.size(), 0u);
}

TEST_F(EngineTest, OrderBySortsNumbersNotLexically) {
  CreateLfnTable();
  Exec("INSERT INTO t_lfn (name, ref) VALUES ('x', 10), ('y', 9), ('z', 100)");
  ResultSet rs = Exec("SELECT ref FROM t_lfn ORDER BY ref");
  EXPECT_EQ(rs.at(0, 0).AsInt(), 9);
  EXPECT_EQ(rs.at(1, 0).AsInt(), 10);
  EXPECT_EQ(rs.at(2, 0).AsInt(), 100);
}

TEST_F(EngineTest, OrderByUnknownColumnFails) {
  CreateLfnTable();
  EXPECT_FALSE(TryExec("SELECT name FROM t_lfn ORDER BY nope").ok());
}

}  // namespace
}  // namespace sql
