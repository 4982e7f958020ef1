#include "rdb/database.h"

#include <chrono>
#include <shared_mutex>

#include "common/logging.h"
#include "common/trace_context.h"
#include "rdb/wal_record.h"

namespace rdb {

using rlscommon::Status;

namespace {

WalOptions MakeWalOptions(const BackendProfile& profile,
                          StorageFaultInjector* fault) {
  WalOptions options;
  options.recycle_bytes =
      profile.wal_recycle_bytes ? profile.wal_recycle_bytes : Wal::kRecycleBytes;
  options.recovery = profile.wal_recovery;
  options.fault = fault;
  // The paper's per-commit flush is a batch cap of one.
  if (!profile.wal_group_commit) {
    options.group_max_commits = 1;
  } else if (profile.wal_group_max_commits > 0) {
    options.group_max_commits = profile.wal_group_max_commits;
  }
  options.group_max_wait = profile.wal_group_max_wait;
  return options;
}

}  // namespace

Database::Database(std::string name, BackendProfile profile,
                   std::string wal_path, StorageFaultInjector* fault)
    : name_(std::move(name)),
      profile_(profile),
      wal_(std::move(wal_path), MakeWalOptions(profile, fault)) {
  if (profile_.wal_recovery) {
    wal_.SetCheckpointWriter(
        [this](uint64_t* rows) { return SerializeSnapshot(rows); });
  }
}

Status Database::CreateTable(TableSchema schema) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  const std::string table = schema.name();  // copy: schema is moved below
  if (tables_.count(table)) {
    return Status::AlreadyExists("table " + table + " already exists");
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table " + table + " has no columns");
  }
  tables_.emplace(table, std::make_unique<Table>(std::move(schema), &profile_));
  return Status::Ok();
}

Status Database::DropTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  tables_.erase(it);
  return Status::Ok();
}

Table* Database::GetTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& table) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

Status Database::Vacuum(const std::string& table) {
  Table* t = GetTable(table);
  if (!t) return Status::NotFound("no table " + table);
  std::unique_lock<std::shared_mutex> lock(t->mutex());
  t->Vacuum();
  return Status::Ok();
}

void Database::VacuumAll() {
  for (const std::string& name : TableNames()) {
    (void)Vacuum(name);
  }
}

std::string Database::SerializeSnapshot(uint64_t* snapshot_rows) {
  // Lock order matches the rest of the engine: catalog, then tables.
  // The checkpoint writer runs under the WAL commit lock with no table
  // locks held (MaybeCheckpoint runs after the statement's TableLocks
  // are released), so taking them here cannot deadlock.
  std::lock_guard<std::mutex> catalog_lock(catalog_mu_);
  std::vector<TableSnapshot> tables;
  tables.reserve(tables_.size());
  uint64_t total_rows = 0;
  for (const auto& [name, table] : tables_) {
    std::shared_lock<std::shared_mutex> table_lock(table->mutex());
    TableSnapshot snap;
    snap.table = name;
    snap.rows.reserve(table->live_rows());
    table->Scan([&](Rid rid, SlotState st) {
      if (st != SlotState::kLive) return true;
      Row row;
      if (table->ReadRow(rid, &row).ok()) snap.rows.push_back(std::move(row));
      return true;
    });
    total_rows += snap.rows.size();
    tables.push_back(std::move(snap));
  }
  std::string out;
  EncodeSnapshot(tables, &out);
  if (snapshot_rows) *snapshot_rows = total_rows;
  return out;
}

Status Database::ApplyTxnPayload(std::string_view payload,
                                 uint64_t* records_applied) {
  std::vector<WalRecord> records;
  Status s = DecodeWalRecords(payload, &records);
  if (!s.ok()) return s;
  for (const WalRecord& rec : records) {
    Table* table = GetTable(rec.table);
    if (!table) {
      return Status::DataLoss("WAL replay references unknown table " +
                              rec.table + " (schema not initialized?)");
    }
    std::unique_lock<std::shared_mutex> lock(table->mutex());
    switch (rec.type) {
      case WalRecordType::kInsert:
        s = table->Insert(rec.row, nullptr, nullptr);
        break;
      case WalRecordType::kDelete:
        s = table->DeleteByValue(rec.old_row);
        break;
      case WalRecordType::kUpdate:
        s = table->DeleteByValue(rec.old_row);
        if (s.ok()) s = table->Insert(rec.row, nullptr, nullptr);
        break;
    }
    if (!s.ok()) {
      return Status::DataLoss("WAL replay failed on table " + rec.table + ": " +
                              s.ToString());
    }
    if (records_applied) ++*records_applied;
  }
  return Status::Ok();
}

Status Database::Recover() {
  std::lock_guard<std::mutex> recover_lock(recover_mu_);
  recovery_stats_.enabled = profile_.wal_recovery;
  // A log that could not be opened fails start-up in either lifetime.
  if (wal_.poisoned()) {
    return Status::DataLoss("WAL " + wal_.path() + " of " + name_ +
                            " is unusable; refusing to serve");
  }
  if (!profile_.wal_recovery || wal_.path().empty()) return Status::Ok();
  if (recovery_stats_.ran) return Status::Ok();  // exactly-once per process
  const auto start = std::chrono::steady_clock::now();

  RecoveryStats stats;
  stats.enabled = true;

  // 1. Checkpoint snapshot, if a recycle-wrap ever happened: its LSN is
  //    the replay base; frames at or below it were discarded with the
  //    pre-wrap log.
  std::string snapshot;
  uint64_t base_lsn = 0;
  bool have_snapshot = false;
  Status s = wal_.ReadCheckpointSidecar(&snapshot, &base_lsn, &have_snapshot);
  if (!s.ok()) return s;  // corrupt sidecar: fail stop, operator decides
  if (have_snapshot) {
    std::vector<TableSnapshot> tables;
    s = DecodeSnapshot(snapshot, &tables);
    if (!s.ok()) return s;
    for (const TableSnapshot& snap : tables) {
      Table* table = GetTable(snap.table);
      if (!table) {
        return Status::DataLoss("checkpoint snapshot references unknown table " +
                                snap.table + " (schema not initialized?)");
      }
      std::unique_lock<std::shared_mutex> lock(table->mutex());
      for (const Row& row : snap.rows) {
        Status ins = table->Insert(row, nullptr, nullptr);
        if (!ins.ok()) {
          return Status::DataLoss("checkpoint snapshot replay failed on " +
                                  snap.table + ": " + ins.ToString());
        }
        ++stats.snapshot_rows;
      }
    }
  }

  // 2. Replay the committed frames beyond the snapshot.
  WalRecoverResult wal_result;
  s = wal_.Recover(
      base_lsn,
      [&](uint64_t, std::string_view payload) {
        return ApplyTxnPayload(payload, &stats.records_applied);
      },
      &wal_result);
  if (!s.ok()) return s;
  stats.recovered_txns = wal_result.frames_applied;
  stats.torn_tail_bytes = wal_result.torn_tail_bytes;
  stats.checksum_failures = wal_result.checksum_failures;
  stats.last_lsn = wal_result.last_lsn;
  stats.recover_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  stats.ran = true;
  recovery_stats_ = stats;
  // Stage stamp on the ambient span (server startup traces show what
  // replay cost).
  rlscommon::StampHop("db_recover");
  if (stats.recovered_txns > 0 || stats.snapshot_rows > 0 ||
      stats.torn_tail_bytes > 0) {
    RLS_INFO("rdb") << "recovered " << name_ << ": " << stats.recovered_txns
                    << " txns, " << stats.records_applied << " records, "
                    << stats.snapshot_rows << " snapshot rows, "
                    << stats.torn_tail_bytes << " torn bytes dropped, last lsn "
                    << stats.last_lsn << " in " << stats.recover_micros << "us";
  }
  return Status::Ok();
}

}  // namespace rdb
