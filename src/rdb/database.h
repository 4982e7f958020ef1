// Database: a named catalog of tables sharing one WAL and one backend
// profile. This is the object a DSN ("mysql://lrc0") resolves to through
// the dbapi layer.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "rdb/profile.h"
#include "rdb/table.h"
#include "rdb/wal.h"

namespace rdb {

/// What open-time WAL replay did (profile.wal_recovery only). Filled by
/// Recover(); surfaced as wal_* metrics and in GetStats.
struct RecoveryStats {
  bool enabled = false;          // profile had wal_recovery set
  bool ran = false;              // Recover() completed
  uint64_t recovered_txns = 0;   // committed transactions replayed
  uint64_t records_applied = 0;  // row mutations reapplied
  uint64_t snapshot_rows = 0;    // rows restored from the checkpoint sidecar
  uint64_t torn_tail_bytes = 0;  // bytes dropped at the torn/corrupt tail
  uint64_t checksum_failures = 0;
  uint64_t last_lsn = 0;         // commits continue after this LSN
  uint64_t recover_micros = 0;   // wall time of the replay
};

class Database {
 public:
  /// `wal_path` empty = in-memory accounting only. `fault` (optional)
  /// injects storage failures into the WAL (tests; see storage_fault.h).
  Database(std::string name, BackendProfile profile, std::string wal_path = "",
           StorageFaultInjector* fault = nullptr);

  const std::string& name() const { return name_; }
  const BackendProfile& profile() const { return profile_; }
  Wal& wal() { return wal_; }

  /// Toggles the per-commit durable flush at runtime (the knob the paper
  /// flips between the "flush enabled" and "flush disabled" experiments).
  void SetDurableFlush(bool enabled) { profile_.durable_flush = enabled; }
  bool durable_flush() const { return profile_.durable_flush; }

  /// Transaction gate (profile.wal_recovery): the engine holds it
  /// shared from a transaction's first logged mutation until the WAL
  /// has reserved the transaction's LSN (CommitBegin) or the
  /// transaction rolls back. MaybeCheckpoint takes it exclusively, so
  /// the checkpoint snapshot never captures an uncommitted row, nor a
  /// mutation whose frame would replay on top of it (LSN above the
  /// checkpoint's).
  void LockTxnGateShared() { txn_gate_.lock_shared(); }
  void UnlockTxnGateShared() { txn_gate_.unlock_shared(); }

  /// Runs the WAL checkpoint a batch past the recycle threshold left
  /// pending, from a context where no transaction sits between applying
  /// its mutations and reserving its LSN. Cheap no-op when nothing is
  /// pending; the engine calls it after every commit.
  rlscommon::Status MaybeCheckpoint() {
    if (!wal_.checkpoint_pending()) return rlscommon::Status::Ok();
    std::unique_lock<std::shared_mutex> gate(txn_gate_);
    return wal_.CheckpointIfPending();
  }

  rlscommon::Status CreateTable(TableSchema schema);
  rlscommon::Status DropTable(const std::string& table);

  /// Looks up a table; nullptr if absent. Pointers stay valid until
  /// DropTable (tables are never reallocated).
  Table* GetTable(const std::string& table);
  const Table* GetTable(const std::string& table) const;

  std::vector<std::string> TableNames() const;

  /// VACUUMs one table (exclusive lock) — the PostgreSQL garbage
  /// collection the paper measures in §5.2. Works (as a no-op compaction)
  /// under the MySQL profile too.
  rlscommon::Status Vacuum(const std::string& table);

  /// VACUUMs every table.
  void VacuumAll();

  /// Open-time WAL replay (profile.wal_recovery): loads the checkpoint
  /// snapshot if one exists, then reapplies every committed transaction
  /// the log holds beyond it. Call once, after the schema has been
  /// recreated (DDL is not logged) and before serving traffic. A second
  /// call is a no-op — replay is exactly-once per process. DATA_LOSS
  /// when the log file could not be opened (either lifetime).
  rlscommon::Status Recover();

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

 private:
  /// Serializes every table's live rows (checkpoint writer; takes the
  /// catalog and per-table shared locks).
  std::string SerializeSnapshot(uint64_t* snapshot_rows);

  /// Reapplies one committed transaction payload during Recover().
  rlscommon::Status ApplyTxnPayload(std::string_view payload,
                                    uint64_t* records_applied);

  std::string name_;
  BackendProfile profile_;
  Wal wal_;
  mutable std::mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::mutex recover_mu_;
  RecoveryStats recovery_stats_;
  /// See LockTxnGateShared(). Shared holders are short (a transaction's
  /// apply + WAL enqueue), so writer starvation is not a concern here.
  std::shared_mutex txn_gate_;
};

}  // namespace rdb
