// Deterministic crash matrix for the recovery WAL.
//
// A seeded workload of single-statement transactions runs through the
// full dbapi/sql/rdb stack against a WAL-recovery database, recording
// the WAL length and a reference-model snapshot after every commit.
// Then, for every commit boundary (and several intra-record offsets),
// the test simulates a crash by truncating a copy of the log at that
// byte, reopens a fresh database over the copy, replays, and asserts
// the recovered state equals exactly the committed prefix: no lost
// transaction, no partial transaction, exactly-once application.
//
// Every commit goes through the WAL's one leader/batch path; the
// matrix runs at the default batch cap of one, and the grouped-batch
// test below cuts inside multi-frame batches.
//
// Environment knobs (the scripts/check.sh crash gate turns them up):
//   RLS_CRASH_TXNS   workload size      (default 120)
//   RLS_CRASH_SEED   workload seed      (default 42)
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dbapi/dbapi.h"
#include "rdb/storage_fault.h"
#include "rls/lrc_store.h"

namespace rls {
namespace {

using rlscommon::Status;

// key -> (id, value): what a correct database holds after a prefix of
// the workload. Mirrors the kv table's unique-key semantics.
using Model = std::map<std::string, std::pair<int64_t, int64_t>>;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value && *value ? std::strtoull(value, nullptr, 10) : fallback;
}

std::string TestDir() {
  return ::testing::TempDir() + "/rls_crash_" + std::to_string(::getpid());
}

void RemoveDbFiles(const std::string& wal_path) {
  ::unlink(wal_path.c_str());
  ::unlink((wal_path + ".ckpt").c_str());
  ::unlink((wal_path + ".ckpt.tmp").c_str());
}

bool CopyFile(const std::string& from, const std::string& to) {
  int in = ::open(from.c_str(), O_RDONLY);
  if (in < 0) return false;
  int out = ::open(to.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (out < 0) {
    ::close(in);
    return false;
  }
  char buf[1 << 16];
  ssize_t n;
  bool ok = true;
  while ((n = ::read(in, buf, sizeof(buf))) > 0) {
    if (::write(out, buf, static_cast<std::size_t>(n)) != n) {
      ok = false;
      break;
    }
  }
  ::close(in);
  ::close(out);
  return ok && n == 0;
}

rdb::BackendProfile RecoveryProfile(uint64_t recycle_bytes = 0) {
  rdb::BackendProfile profile = rdb::BackendProfile::MySQL();
  profile.wal_recovery = true;
  if (recycle_bytes) profile.wal_recycle_bytes = recycle_bytes;
  return profile;
}

Status CreateKvSchema(dbapi::Connection& conn) {
  sql::ResultSet rs;
  Status s = conn.Execute(
      "CREATE TABLE kv (id INT AUTO_INCREMENT PRIMARY KEY,"
      " key VARCHAR(100) NOT NULL, value INT)",
      &rs);
  if (!s.ok()) return s;
  return conn.Execute("CREATE UNIQUE INDEX idx_kv_key ON kv (key)", &rs);
}

/// One step of the seeded workload: a single autocommitted statement.
/// Returns false if the step attempted nothing (e.g. delete of an
/// absent key). When a statement ran, `*ok` reports whether it
/// committed; the model is updated only on success, so after an
/// injected crash the model keeps tracking the committed prefix.
bool WorkloadStep(dbapi::Connection& conn, rlscommon::Xoshiro256& rng,
                  Model* model, bool* ok) {
  const std::string key = "k" + std::to_string(rng.Below(40));
  const int64_t value = static_cast<int64_t>(rng.Below(100000));
  sql::ResultSet rs;
  switch (rng.Below(4)) {
    case 0:
    case 1: {  // insert (fresh keys only; duplicates are a no-op step)
      if (model->count(key)) return false;
      *ok = conn.Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                         {rdb::Value::String(key), rdb::Value::Int(value)}, &rs)
                .ok();
      if (*ok) (*model)[key] = {conn.LastInsertId(), value};
      return true;
    }
    case 2: {  // update
      if (!model->count(key)) return false;
      *ok = conn.Execute("UPDATE kv SET value = ? WHERE key = ?",
                         {rdb::Value::Int(value), rdb::Value::String(key)}, &rs)
                .ok();
      if (*ok) (*model)[key].second = value;
      return true;
    }
    default: {  // delete
      if (!model->count(key)) return false;
      *ok = conn.Execute("DELETE FROM kv WHERE key = ?",
                         {rdb::Value::String(key)}, &rs)
                .ok();
      if (*ok) model->erase(key);
      return true;
    }
  }
}

/// Reads the kv table back into Model form (ids included, so replay
/// must reproduce auto-increment assignment exactly).
Model DumpTable(rdb::Database* db) {
  Model out;
  const rdb::Table* table = db->GetTable("kv");
  if (!table) return out;
  table->Scan([&](rdb::Rid rid, rdb::SlotState st) {
    if (st != rdb::SlotState::kLive) return true;
    rdb::Row row;
    if (table->ReadRow(rid, &row).ok()) {
      out[row[1].AsString()] = {row[0].AsInt(), row[2].AsInt()};
    }
    return true;
  });
  return out;
}

/// Simulates a reboot: opens a fresh environment over `wal_path`,
/// recreates the schema (DDL is not logged) and replays the log.
/// Returns the recovered database (owned by `env`).
rdb::Database* Reopen(dbapi::Environment& env, const std::string& dsn,
                      const std::string& wal_path,
                      uint64_t recycle_bytes = 0) {
  EXPECT_TRUE(env.CreateDatabaseWithProfile(dsn, RecoveryProfile(recycle_bytes),
                                            wal_path)
                  .ok());
  std::unique_ptr<dbapi::Connection> conn;
  EXPECT_TRUE(dbapi::Connection::Open(env, dsn, &conn).ok());
  EXPECT_TRUE(CreateKvSchema(*conn).ok());
  rdb::Database* db = env.Find(dsn);
  EXPECT_NE(db, nullptr);
  EXPECT_TRUE(db->Recover().ok());
  return db;
}

/// The workload trace: one entry per committed transaction.
struct Boundary {
  uint64_t wal_bytes = 0;  // WAL length right after this commit
  Model model;             // reference state at this point
};

/// Runs the seeded workload against a live database and records every
/// commit boundary. `recycle_bytes` 0 = never wrap during the run.
std::vector<Boundary> RunWorkload(dbapi::Environment& env,
                                  const std::string& dsn,
                                  const std::string& wal_path, uint64_t txns,
                                  uint64_t seed, uint64_t recycle_bytes = 0) {
  EXPECT_TRUE(env.CreateDatabaseWithProfile(dsn, RecoveryProfile(recycle_bytes),
                                            wal_path)
                  .ok());
  std::unique_ptr<dbapi::Connection> conn;
  EXPECT_TRUE(dbapi::Connection::Open(env, dsn, &conn).ok());
  EXPECT_TRUE(CreateKvSchema(*conn).ok());
  rdb::Database* db = env.Find(dsn);
  EXPECT_TRUE(db->Recover().ok());

  rlscommon::Xoshiro256 rng(seed);
  Model model;
  std::vector<Boundary> boundaries;
  boundaries.push_back({db->wal().file_bytes(), model});  // empty prefix
  uint64_t committed = 0;
  while (committed < txns) {
    bool ok = false;
    if (WorkloadStep(*conn, rng, &model, &ok)) {
      EXPECT_TRUE(ok) << "workload statement failed at txn " << committed;
      ++committed;
      boundaries.push_back({db->wal().file_bytes(), model});
    }
  }
  return boundaries;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir();
    ::mkdir(dir_.c_str(), 0755);
  }

  std::string dir_;
  int next_dsn_ = 0;

  std::string NewDsn() {
    return "mysql://crash" + std::to_string(::getpid()) + "_" +
           std::to_string(next_dsn_++);
  }
};

// The tentpole acceptance test: crash at EVERY committed-transaction
// boundary, reopen, replay, and require the recovered state to equal
// the committed prefix exactly.
TEST_F(CrashRecoveryTest, EveryBoundaryRecoversCommittedPrefix) {
  const uint64_t txns = EnvU64("RLS_CRASH_TXNS", 120);
  const uint64_t seed = EnvU64("RLS_CRASH_SEED", 42);
  const std::string wal = dir_ + "/matrix.wal";
  RemoveDbFiles(wal);

  dbapi::Environment live_env;
  const auto boundaries =
      RunWorkload(live_env, NewDsn(), wal, txns, seed);
  ASSERT_EQ(boundaries.size(), txns + 1);

  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    const std::string cut_wal =
        dir_ + "/cut_" + std::to_string(i) + ".wal";
    RemoveDbFiles(cut_wal);
    ASSERT_TRUE(CopyFile(wal, cut_wal)) << "cut " << i;
    ASSERT_EQ(::truncate(cut_wal.c_str(),
                         static_cast<off_t>(boundaries[i].wal_bytes)),
              0);
    dbapi::Environment env;
    rdb::Database* db = Reopen(env, NewDsn(), cut_wal);
    EXPECT_EQ(DumpTable(db), boundaries[i].model) << "boundary " << i;
    EXPECT_EQ(db->recovery_stats().recovered_txns, i) << "boundary " << i;
    EXPECT_EQ(db->recovery_stats().torn_tail_bytes, 0u) << "boundary " << i;
    RemoveDbFiles(cut_wal);
  }
  RemoveDbFiles(wal);
}

// Cuts that land INSIDE a frame must recover to the previous boundary:
// the torn transaction is dropped whole, never applied partially.
TEST_F(CrashRecoveryTest, IntraRecordCutsDropTheTornTransactionWhole) {
  const uint64_t txns = EnvU64("RLS_CRASH_TXNS", 120);
  const uint64_t seed = EnvU64("RLS_CRASH_SEED", 42);
  const std::string wal = dir_ + "/intra.wal";
  RemoveDbFiles(wal);

  dbapi::Environment live_env;
  const auto boundaries =
      RunWorkload(live_env, NewDsn(), wal, txns, seed);

  // >= 3 intra-record cut points spread over the log, plus the very
  // first frame's header (cut after 1 byte of frame 0).
  const std::size_t picks[] = {1, boundaries.size() / 2, boundaries.size() - 1};
  int cuts_tested = 0;
  for (std::size_t i : picks) {
    const uint64_t lo = boundaries[i - 1].wal_bytes;
    const uint64_t hi = boundaries[i].wal_bytes;
    ASSERT_GT(hi, lo);
    for (uint64_t cut : {lo + 1, (lo + hi) / 2, hi - 1}) {
      if (cut <= lo || cut >= hi) continue;
      const std::string cut_wal = dir_ + "/intra_" + std::to_string(i) + "_" +
                                  std::to_string(cut) + ".wal";
      RemoveDbFiles(cut_wal);
      ASSERT_TRUE(CopyFile(wal, cut_wal));
      ASSERT_EQ(::truncate(cut_wal.c_str(), static_cast<off_t>(cut)), 0);
      dbapi::Environment env;
      rdb::Database* db = Reopen(env, NewDsn(), cut_wal);
      EXPECT_EQ(DumpTable(db), boundaries[i - 1].model)
          << "cut " << cut << " in txn " << i;
      EXPECT_EQ(db->recovery_stats().recovered_txns, i - 1);
      EXPECT_EQ(db->recovery_stats().torn_tail_bytes, cut - lo);
      ++cuts_tested;
      RemoveDbFiles(cut_wal);
    }
  }
  EXPECT_GE(cuts_tested, 3);
  RemoveDbFiles(wal);
}

// The injector's CrashAtByte must be equivalent to truncating at that
// byte: what the "dead" process left on disk recovers to the same
// state a file-level cut would.
TEST_F(CrashRecoveryTest, InjectedCrashMatchesFileTruncation) {
  const uint64_t seed = EnvU64("RLS_CRASH_SEED", 42);
  const std::string wal = dir_ + "/inject.wal";
  RemoveDbFiles(wal);

  // First pass (no faults) to learn the boundary offsets.
  dbapi::Environment probe_env;
  const auto boundaries =
      RunWorkload(probe_env, NewDsn(), wal, 40, seed);
  ASSERT_GE(boundaries.size(), 21u);
  // Crash 7 bytes into the 21st transaction's frame.
  const uint64_t crash_at = boundaries[20].wal_bytes + 7;
  RemoveDbFiles(wal);

  rdb::StorageFaultInjector fault(seed);
  fault.CrashAtByte(crash_at);
  dbapi::Environment env;
  const std::string dsn = NewDsn();
  ASSERT_TRUE(
      env.CreateDatabaseWithProfile(dsn, RecoveryProfile(), wal, &fault).ok());
  std::unique_ptr<dbapi::Connection> conn;
  ASSERT_TRUE(dbapi::Connection::Open(env, dsn, &conn).ok());
  ASSERT_TRUE(CreateKvSchema(*conn).ok());
  ASSERT_TRUE(env.Find(dsn)->Recover().ok());

  // Re-run the identical workload; the commit that crosses crash_at
  // fails with DATA_LOSS and every commit after it fails fast.
  rlscommon::Xoshiro256 rng(seed);
  Model model;
  uint64_t committed = 0;
  bool crashed = false;
  for (int step = 0; step < 4096 && !crashed; ++step) {
    bool ok = false;
    if (!WorkloadStep(*conn, rng, &model, &ok)) continue;
    if (ok) {
      ++committed;
    } else {
      crashed = true;  // this step's commit hit the crash point
      EXPECT_TRUE(env.Find(dsn)->wal().poisoned());
    }
  }
  ASSERT_TRUE(crashed);
  EXPECT_EQ(committed, 20u);
  EXPECT_EQ(model, boundaries[20].model);

  // "Reboot" over what the dead process left behind.
  dbapi::Environment reboot_env;
  rdb::Database* db = Reopen(reboot_env, NewDsn(), wal);
  EXPECT_EQ(DumpTable(db), boundaries[20].model);
  EXPECT_EQ(db->recovery_stats().recovered_txns, 20u);
  EXPECT_EQ(db->recovery_stats().torn_tail_bytes, 7u);
  RemoveDbFiles(wal);
}

// Recovery must survive a checkpoint wrap: state = sidecar snapshot +
// frames beyond it, and the matrix property still holds afterwards.
TEST_F(CrashRecoveryTest, RecoversAcrossCheckpointWrap) {
  const uint64_t seed = EnvU64("RLS_CRASH_SEED", 42);
  const std::string wal = dir_ + "/wrap.wal";
  RemoveDbFiles(wal);

  // A tiny recycle threshold forces several checkpoint wraps.
  dbapi::Environment live_env;
  const std::string dsn = NewDsn();
  const auto boundaries =
      RunWorkload(live_env, dsn, wal, 200, seed, /*recycle_bytes=*/2048);
  ASSERT_GE(live_env.Find(dsn)->wal().checkpoints(), 1u);

  dbapi::Environment env;
  rdb::Database* db = Reopen(env, NewDsn(), wal, /*recycle_bytes=*/2048);
  EXPECT_EQ(DumpTable(db), boundaries.back().model);
  EXPECT_GT(db->recovery_stats().snapshot_rows, 0u);
  RemoveDbFiles(wal);
}

// Double replay is a no-op, and commits after recovery continue the
// LSN sequence so a further reopen still recovers everything.
TEST_F(CrashRecoveryTest, DoubleReplayIsNoOpAndCommitsContinue) {
  const uint64_t seed = EnvU64("RLS_CRASH_SEED", 42);
  const std::string wal = dir_ + "/double.wal";
  RemoveDbFiles(wal);

  dbapi::Environment live_env;
  const auto boundaries =
      RunWorkload(live_env, NewDsn(), wal, 30, seed);

  dbapi::Environment env;
  const std::string dsn = NewDsn();
  rdb::Database* db = Reopen(env, dsn, wal);
  const Model recovered = DumpTable(db);
  EXPECT_EQ(recovered, boundaries.back().model);
  const uint64_t lsn_after = db->wal().last_lsn();

  // Second Recover: exactly-once — nothing reapplied, nothing changed.
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(DumpTable(db), recovered);
  EXPECT_EQ(db->wal().last_lsn(), lsn_after);

  // Replay-then-commit: new transactions extend the log, and another
  // reboot recovers the full combined state.
  std::unique_ptr<dbapi::Connection> conn;
  ASSERT_TRUE(dbapi::Connection::Open(env, dsn, &conn).ok());
  sql::ResultSet rs;
  ASSERT_TRUE(conn->Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                            {rdb::Value::String("post-recovery"),
                             rdb::Value::Int(777)},
                            &rs)
                  .ok());
  EXPECT_GT(db->wal().last_lsn(), lsn_after);
  Model extended = recovered;
  extended["post-recovery"] = {conn->LastInsertId(), 777};

  dbapi::Environment reboot_env;
  rdb::Database* db2 = Reopen(reboot_env, NewDsn(), wal);
  EXPECT_EQ(DumpTable(db2), extended);
  RemoveDbFiles(wal);
}

// Group commit batches several transactions into ONE contiguous
// append. A power cut landing inside that batch must still recover a
// whole-transaction prefix: complete frames from the batch apply,
// the torn frame is dropped whole, frames after the tear are gone.
TEST_F(CrashRecoveryTest, GroupedBatchCutsRecoverWholeTransactionPrefix) {
  const std::string wal = dir_ + "/group.wal";
  RemoveDbFiles(wal);

  rdb::BackendProfile profile = RecoveryProfile();
  profile.wal_group_commit = true;
  profile.wal_group_max_commits = 4;
  profile.wal_group_max_wait = std::chrono::microseconds(2'000'000);

  dbapi::Environment live_env;
  const std::string dsn = NewDsn();
  ASSERT_TRUE(live_env.CreateDatabaseWithProfile(dsn, profile, wal).ok());
  std::unique_ptr<dbapi::Connection> schema_conn;
  ASSERT_TRUE(dbapi::Connection::Open(live_env, dsn, &schema_conn).ok());
  ASSERT_TRUE(CreateKvSchema(*schema_conn).ok());
  rdb::Database* db = live_env.Find(dsn);
  ASSERT_TRUE(db->Recover().ok());
  const uint64_t before = db->wal().file_bytes();

  // 4 committers with a linger wide enough to collect all of them:
  // exactly one batch, one sync. Identical payload shapes give
  // identical frame sizes, so every intra-batch offset is computable.
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&live_env, &dsn, i] {
      std::unique_ptr<dbapi::Connection> conn;
      ASSERT_TRUE(dbapi::Connection::Open(live_env, dsn, &conn).ok());
      sql::ResultSet rs;
      EXPECT_TRUE(conn->Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                                {rdb::Value::String("gc" + std::to_string(i)),
                                 rdb::Value::Int(1000 + i)},
                                &rs)
                      .ok());
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t after = db->wal().file_bytes();
  EXPECT_EQ(db->wal().group_commits(), 1u);
  const uint64_t frame = (after - before) / 4;
  ASSERT_EQ(frame * 4, after - before) << "frames are not equal-sized";

  // Cut between frames (offset 0) and inside each frame. Each insert
  // takes its auto-increment id while its statement runs, before its
  // frame joins the batch, so ids need not follow frame order; the
  // recovered rows are what must be a whole-transaction prefix. Every
  // cut inside frame k recovers what the cut before it does, each whole
  // frame adds exactly one row, and all four give the full log's rows.
  Model previous;
  for (uint64_t k = 0; k <= 4; ++k) {
    Model at_frame_start;
    for (uint64_t d : {uint64_t{0}, uint64_t{1}, frame / 2, frame - 1}) {
      if (k == 4 && d > 0) break;  // the cut at the end of the log
      const uint64_t cut = before + k * frame + d;
      const std::string cut_wal = dir_ + "/group_" + std::to_string(k) + "_" +
                                  std::to_string(d) + ".wal";
      RemoveDbFiles(cut_wal);
      ASSERT_TRUE(CopyFile(wal, cut_wal));
      ASSERT_EQ(::truncate(cut_wal.c_str(), static_cast<off_t>(cut)), 0);
      dbapi::Environment env;
      rdb::Database* rec = Reopen(env, NewDsn(), cut_wal);
      const Model recovered = DumpTable(rec);
      EXPECT_EQ(rec->recovery_stats().recovered_txns, k) << "cut " << cut;
      EXPECT_EQ(rec->recovery_stats().torn_tail_bytes, d) << "cut " << cut;
      if (d == 0) {
        at_frame_start = recovered;
        EXPECT_EQ(recovered.size(), k) << "cut " << cut;
        for (const auto& [key, row] : previous) {
          auto it = recovered.find(key);
          EXPECT_TRUE(it != recovered.end() && it->second == row)
              << "cut " << cut << " lost or changed " << key;
        }
      } else {
        EXPECT_EQ(recovered, at_frame_start) << "cut " << cut;
      }
      RemoveDbFiles(cut_wal);
    }
    previous = at_frame_start;
  }
  EXPECT_EQ(previous, DumpTable(db));
  RemoveDbFiles(wal);
}

// The LRC bulk path logs a whole batch as ONE multi-row transaction:
// a cut anywhere inside that frame must drop the entire batch, never
// a partial one (all-or-nothing at the frame level).
TEST_F(CrashRecoveryTest, BulkTransactionIsAllOrNothingAcrossCrash) {
  const std::string wal = dir_ + "/bulk.wal";
  RemoveDbFiles(wal);

  dbapi::Environment live_env;
  const std::string dsn = NewDsn();
  ASSERT_TRUE(
      live_env.CreateDatabaseWithProfile(dsn, RecoveryProfile(), wal).ok());
  std::unique_ptr<dbapi::Connection> conn;
  ASSERT_TRUE(dbapi::Connection::Open(live_env, dsn, &conn).ok());
  ASSERT_TRUE(CreateKvSchema(*conn).ok());
  rdb::Database* db = live_env.Find(dsn);
  ASSERT_TRUE(db->Recover().ok());

  // One durable anchor txn, then a 10-row batch in a single explicit
  // transaction (the shape LrcStore::AddMappings logs).
  sql::ResultSet rs;
  ASSERT_TRUE(conn->Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                            {rdb::Value::String("anchor"), rdb::Value::Int(1)},
                            &rs)
                  .ok());
  const uint64_t anchor_bytes = db->wal().file_bytes();
  ASSERT_TRUE(conn->Begin().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(conn->Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                              {rdb::Value::String("b" + std::to_string(i)),
                               rdb::Value::Int(i)},
                              &rs)
                    .ok());
  }
  ASSERT_TRUE(conn->Commit().ok());
  const uint64_t batch_bytes = db->wal().file_bytes();
  ASSERT_GT(batch_bytes, anchor_bytes);

  for (uint64_t cut : {anchor_bytes + 1, (anchor_bytes + batch_bytes) / 2,
                       batch_bytes - 1, batch_bytes}) {
    const std::string cut_wal = dir_ + "/bulk_" + std::to_string(cut) + ".wal";
    RemoveDbFiles(cut_wal);
    ASSERT_TRUE(CopyFile(wal, cut_wal));
    ASSERT_EQ(::truncate(cut_wal.c_str(), static_cast<off_t>(cut)), 0);
    dbapi::Environment env;
    rdb::Database* rec = Reopen(env, NewDsn(), cut_wal);
    const Model recovered = DumpTable(rec);
    if (cut == batch_bytes) {
      EXPECT_EQ(recovered.size(), 11u) << "cut " << cut;  // anchor + batch
    } else {
      EXPECT_EQ(recovered.size(), 1u) << "cut " << cut;  // anchor only
      EXPECT_EQ(recovered.count("anchor"), 1u);
    }
    RemoveDbFiles(cut_wal);
  }
  RemoveDbFiles(wal);
}

// A checkpoint must never capture another session's uncommitted row.
// B holds an open transaction with an applied INSERT while A's commits
// push the log past the recycle threshold; B then rolls back. The
// checkpoint waits on the txn gate until B is done, so recovery must
// not bring B's row back.
TEST_F(CrashRecoveryTest, CheckpointNeverCapturesUncommittedRow) {
  const std::string wal = dir_ + "/isolation.wal";
  RemoveDbFiles(wal);
  constexpr uint64_t kRecycleBytes = 512;

  dbapi::Environment live_env;
  const std::string dsn = NewDsn();
  ASSERT_TRUE(
      live_env.CreateDatabaseWithProfile(dsn, RecoveryProfile(kRecycleBytes), wal)
          .ok());
  std::unique_ptr<dbapi::Connection> a, b;
  ASSERT_TRUE(dbapi::Connection::Open(live_env, dsn, &a).ok());
  ASSERT_TRUE(dbapi::Connection::Open(live_env, dsn, &b).ok());
  ASSERT_TRUE(CreateKvSchema(*a).ok());
  rdb::Database* db = live_env.Find(dsn);
  ASSERT_TRUE(db->Recover().ok());

  sql::ResultSet rs;
  ASSERT_TRUE(b->Begin().ok());
  ASSERT_TRUE(b->Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                         {rdb::Value::String("uncommitted"),
                          rdb::Value::Int(1)},
                         &rs)
                  .ok());

  // A commits until a checkpoint is pending (or, with an inline
  // checkpoint, has already run), then finishes its last commit.
  Model committed;
  std::thread writer([&] {
    for (int i = 0; i < 1000; ++i) {
      if (db->wal().checkpoint_pending() || db->wal().checkpoints() > 0) break;
      const std::string key = "a" + std::to_string(i);
      sql::ResultSet ars;
      ASSERT_TRUE(a->Execute("INSERT INTO kv (key, value) VALUES (?, ?)",
                             {rdb::Value::String(key), rdb::Value::Int(i)},
                             &ars)
                      .ok());
      committed[key] = {a->LastInsertId(), i};
    }
  });
  while (!db->wal().checkpoint_pending() && db->wal().checkpoints() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(b->Rollback().ok());
  writer.join();
  ASSERT_GE(db->wal().checkpoints(), 1u);

  dbapi::Environment env;
  rdb::Database* rec = Reopen(env, NewDsn(), wal, kRecycleBytes);
  EXPECT_GT(rec->recovery_stats().snapshot_rows, 0u);
  const Model recovered = DumpTable(rec);
  EXPECT_EQ(recovered.count("uncommitted"), 0u);
  EXPECT_EQ(recovered, committed);
  RemoveDbFiles(wal);
}

// A log file that cannot be opened fails start-up instead of
// acknowledging writes no file holds, in either log lifetime.
TEST_F(CrashRecoveryTest, UnopenableLogFailsStoreCreation) {
  const std::string wal = dir_ + "/missing_dir/lrc.wal";
  for (const bool persistent : {false, true}) {
    SCOPED_TRACE(persistent ? "persistent" : "scratch");
    rdb::BackendProfile profile = RecoveryProfile();
    profile.wal_recovery = persistent;
    dbapi::Environment env;
    const std::string dsn = NewDsn();
    ASSERT_TRUE(env.CreateDatabaseWithProfile(dsn, profile, wal).ok());
    std::unique_ptr<LrcStore> store;
    EXPECT_EQ(LrcStore::Create(env, dsn, &store).code(),
              rlscommon::ErrorCode::kDataLoss);
    EXPECT_EQ(store, nullptr);
  }
}

}  // namespace
}  // namespace rls
