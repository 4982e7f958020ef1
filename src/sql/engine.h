// SQL execution engine: binds parsed statements to an rdb::Database.
//
// Planning is deliberately simple and deterministic, in the spirit of the
// hand-tuned SQL the 2004 RLS issued through ODBC:
//   * the first FROM table drives; an equality WHERE predicate with a hash
//     index (or a </<= predicate with an ordered index) selects the access
//     path, otherwise the table is scanned;
//   * joins are left-deep nested loops in FROM-clause order, probing the
//     inner table's hash index on the join column when one exists.
// The RLS schema indexes every join/lookup column, so all hot queries run
// index-to-index.
#pragma once

#include <string_view>
#include <vector>

#include "common/error.h"
#include "rdb/database.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "sql/session.h"

namespace sql {

/// A point inside an open transaction that RollbackToSavepoint can
/// rewind to: later undo records are inverted and later WAL-buffer
/// bytes dropped, leaving the transaction open. Powers per-item
/// isolation inside batched (multi-row) transactions.
struct Savepoint {
  std::size_t undo_size = 0;
  std::size_t wal_size = 0;
};

class Engine {
 public:
  explicit Engine(rdb::Database* db) : db_(db) {}

  /// Executes a parsed statement with positional parameters.
  /// Autocommits unless `session` has an open transaction.
  rlscommon::Status Execute(const Statement& stmt,
                            const std::vector<rdb::Value>& params,
                            Session* session, ResultSet* result);

  /// Parses and executes in one step (convenience for tests/examples).
  rlscommon::Status ExecuteSql(std::string_view text,
                               const std::vector<rdb::Value>& params,
                               Session* session, ResultSet* result);

  rdb::Database* database() { return db_; }

  /// First half of COMMIT, split so a caller can release its own
  /// ordering lock before parking for the batch sync: closes the open
  /// transaction, hands the WAL buffer to the log (reserves the LSN and
  /// enqueues without blocking on disk) and releases the txn gate.
  /// Complete with CommitWait.
  rlscommon::Status CommitBegin(Session* session,
                                rdb::Wal::CommitTicket* ticket);

  /// Second half of COMMIT: parks until the ticket's batch is synced,
  /// then runs any checkpoint a batch past the recycle threshold left
  /// pending.
  rlscommon::Status CommitWait(rdb::Wal::CommitTicket* ticket);

  /// Marks the current position of the open transaction (batched write
  /// paths take one per item).
  Savepoint MakeSavepoint(const Session* session) const {
    return Savepoint{session->undo_.size(), session->wal_buffer_.size()};
  }

  /// Rewinds the open transaction to `sp`: inverts the undo records
  /// pushed since, drops their WAL bytes, keeps the transaction open.
  rlscommon::Status RollbackToSavepoint(Session* session, const Savepoint& sp);

 private:
  rlscommon::Status ExecSelect(const SelectStmt& stmt,
                               const std::vector<rdb::Value>& params,
                               ResultSet* result);
  rlscommon::Status ExecInsert(const InsertStmt& stmt,
                               const std::vector<rdb::Value>& params,
                               Session* session, ResultSet* result);
  rlscommon::Status ExecUpdate(const UpdateStmt& stmt,
                               const std::vector<rdb::Value>& params,
                               Session* session, ResultSet* result);
  rlscommon::Status ExecDelete(const DeleteStmt& stmt,
                               const std::vector<rdb::Value>& params,
                               Session* session, ResultSet* result);
  rlscommon::Status ExecCreateTable(const CreateTableStmt& stmt);
  rlscommon::Status ExecCreateIndex(const CreateIndexStmt& stmt);
  rlscommon::Status ExecTxn(const TxnStmt& stmt, Session* session);
  rlscommon::Status ExecExplain(const ExplainStmt& stmt,
                                const std::vector<rdb::Value>& params,
                                ResultSet* result);

  /// Commits the session's WAL buffer (autocommit or explicit COMMIT):
  /// CommitWalBegin + CommitWait in one blocking step.
  rlscommon::Status CommitWal(Session* session);

  /// Hands the WAL buffer to the log (enqueue half) and releases the
  /// txn gate. The commit completes via CommitWait on the ticket.
  rlscommon::Status CommitWalBegin(Session* session,
                                   rdb::Wal::CommitTicket* ticket);

  /// Applies the undo log in reverse (ROLLBACK / failed statement).
  rlscommon::Status ApplyUndo(Session* session, std::size_t down_to);

  /// Drops the session's shared hold on the database txn gate, if any.
  void ReleaseTxnGate(Session* session);

  rdb::Database* db_;
};

}  // namespace sql
