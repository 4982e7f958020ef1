// ODBC-style database access layer.
//
// The 2004 RLS reached its back ends through libiodbc + myodbc/psqlodbc so
// the server code was back-end agnostic (paper §3.1, Fig. 2). This layer
// plays that role: servers open a Connection by DSN and speak SQL; whether
// the engine behind it behaves like MySQL or PostgreSQL is decided by the
// DSN's driver prefix:
//
//   "mysql://lrc0"       -> rdb engine with the MySQL profile
//   "postgresql://lrc0"  -> rdb engine with the PostgreSQL profile
//
// Connections are NOT thread-safe; use one per server worker thread (the
// original did the same with ODBC handles).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/error.h"
#include "rdb/database.h"
#include "sql/engine.h"
#include "sql/session.h"

namespace dbapi {

/// Parses "<driver>://<name>". Returns InvalidArgument on unknown driver.
rlscommon::Status ParseDsn(const std::string& dsn, rdb::BackendKind* kind,
                           std::string* name);

/// Process-wide registry of databases, keyed by DSN.
class Environment {
 public:
  /// Singleton used by servers and examples; tests may construct private
  /// environments.
  static Environment& Global();

  Environment() = default;
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Creates the database named by `dsn` (driver prefix selects the
  /// profile). `wal_path` empty = in-memory WAL accounting only.
  /// AlreadyExists if the DSN is taken.
  rlscommon::Status CreateDatabase(const std::string& dsn,
                                   const std::string& wal_path = "");

  /// Creates with a custom profile (tests tune the flush penalty or
  /// enable WAL recovery). `fault` (optional, tests only) injects storage
  /// failures into the database's WAL; it must outlive the database.
  rlscommon::Status CreateDatabaseWithProfile(
      const std::string& dsn, rdb::BackendProfile profile,
      const std::string& wal_path = "",
      rdb::StorageFaultInjector* fault = nullptr);

  /// Looks up a registered database; nullptr if absent.
  rdb::Database* Find(const std::string& dsn);

  /// Drops the database and all its tables.
  rlscommon::Status DropDatabase(const std::string& dsn);

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<rdb::Database>> databases_;
};

/// A connection: SQL in, ResultSets out. Caches prepared statements by
/// SQL text so hot-path statements parse once.
class Connection {
 public:
  /// Opens a connection to an existing DSN in `env`.
  static rlscommon::Status Open(Environment& env, const std::string& dsn,
                                std::unique_ptr<Connection>* out);

  /// Executes one statement with positional '?' parameters.
  rlscommon::Status Execute(const std::string& sql,
                            const std::vector<rdb::Value>& params,
                            sql::ResultSet* result);

  /// Parameterless convenience.
  rlscommon::Status Execute(const std::string& sql, sql::ResultSet* result) {
    return Execute(sql, {}, result);
  }

  rlscommon::Status Begin();
  rlscommon::Status Commit();
  rlscommon::Status Rollback();

  /// Split commit: CommitBegin closes the open transaction and reserves
  /// its WAL slot without blocking on the disk, so the caller can
  /// release its own ordering lock before parking in CommitFinish for
  /// the batch sync. The ticket must outlive the matching CommitFinish.
  rlscommon::Status CommitBegin(rdb::Wal::CommitTicket* ticket) {
    return engine_.CommitBegin(&session_, ticket);
  }
  rlscommon::Status CommitFinish(rdb::Wal::CommitTicket* ticket) {
    return engine_.CommitWait(ticket);
  }

  /// Marks a rewind point inside the open transaction; see
  /// RollbackToSavepoint. Batched write paths take one per item so a
  /// failed item rolls back alone instead of aborting the batch.
  sql::Savepoint Savepoint() const { return engine_.MakeSavepoint(&session_); }
  rlscommon::Status RollbackToSavepoint(const sql::Savepoint& sp) {
    return engine_.RollbackToSavepoint(&session_, sp);
  }

  bool in_transaction() const { return session_.in_transaction(); }
  int64_t LastInsertId() const { return session_.last_insert_id(); }

  /// Runs VACUUM on one table (empty = all): the PostgreSQL maintenance
  /// operation of paper §5.2.
  rlscommon::Status Vacuum(const std::string& table = "");

  /// Toggles durable flush for the underlying database (the paper's
  /// "database flush enabled/disabled" knob).
  void SetDurableFlush(bool enabled) { db_->SetDurableFlush(enabled); }

  rdb::Database* database() { return db_; }

 private:
  Connection(rdb::Database* db) : db_(db), engine_(db) {}

  rdb::Database* db_;
  sql::Engine engine_;
  sql::Session session_;
  std::unordered_map<std::string, sql::Statement> statement_cache_;
};

}  // namespace dbapi
