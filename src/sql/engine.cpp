#include "sql/engine.h"

#include <algorithm>
#include <functional>
#include <shared_mutex>

#include "common/strings.h"
#include "common/trace_context.h"
#include "rdb/wal_record.h"
#include "sql/parser.h"

namespace sql {
namespace {

using rdb::Rid;
using rdb::Row;
using rdb::SlotState;
using rdb::Table;
using rdb::Value;
using rlscommon::Status;

/// One table participating in a SELECT.
struct Source {
  std::string alias;
  Table* table = nullptr;
};

/// Resolved column: (source index, column index).
struct ResolvedColumn {
  std::size_t source = 0;
  std::size_t column = 0;
};

Status ResolveColumn(const std::vector<Source>& sources, const ColumnRef& ref,
                     ResolvedColumn* out) {
  if (!ref.table.empty()) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].alias != ref.table) continue;
      auto col = sources[s].table->schema().FindColumn(ref.column);
      if (!col) {
        return Status::InvalidArgument("no column " + ref.ToString());
      }
      *out = {s, *col};
      return Status::Ok();
    }
    return Status::InvalidArgument("unknown table alias " + ref.table);
  }
  bool found = false;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (auto col = sources[s].table->schema().FindColumn(ref.column)) {
      if (found) {
        return Status::InvalidArgument("ambiguous column " + ref.column);
      }
      *out = {s, *col};
      found = true;
    }
  }
  if (!found) return Status::InvalidArgument("no column " + ref.column);
  return Status::Ok();
}

/// Operand resolved against sources: either a column or a constant value.
struct BoundOperand {
  bool is_column = false;
  ResolvedColumn column;
  Value constant;
};

Status BindOperand(const std::vector<Source>& sources, const Operand& op,
                   const std::vector<Value>& params, BoundOperand* out) {
  switch (op.kind) {
    case Operand::Kind::kColumn:
      out->is_column = true;
      return ResolveColumn(sources, op.column, &out->column);
    case Operand::Kind::kLiteral:
      out->is_column = false;
      out->constant = op.literal;
      return Status::Ok();
    case Operand::Kind::kParam:
      if (op.param_index >= params.size()) {
        return Status::InvalidArgument("parameter " + std::to_string(op.param_index + 1) +
                                       " not bound");
      }
      out->is_column = false;
      out->constant = params[op.param_index];
      return Status::Ok();
  }
  return Status::Internal("bad operand kind");
}

struct BoundPredicate {
  BoundOperand lhs;
  CmpOp op = CmpOp::kEq;
  BoundOperand rhs;
  std::size_t level = 0;  // deepest source referenced
};

std::size_t OperandLevel(const BoundOperand& op) {
  return op.is_column ? op.column.source : 0;
}

Status BindPredicate(const std::vector<Source>& sources, const Predicate& pred,
                     const std::vector<Value>& params, BoundPredicate* out) {
  Status s = BindOperand(sources, pred.lhs, params, &out->lhs);
  if (!s.ok()) return s;
  s = BindOperand(sources, pred.rhs, params, &out->rhs);
  if (!s.ok()) return s;
  out->op = pred.op;
  out->level = std::max(OperandLevel(out->lhs), OperandLevel(out->rhs));
  return Status::Ok();
}

const Value& OperandValue(const BoundOperand& op, const std::vector<Row>& current) {
  return op.is_column ? current[op.column.source][op.column.column] : op.constant;
}

bool EvalPredicate(const BoundPredicate& pred, const std::vector<Row>& current) {
  const Value& lhs = OperandValue(pred.lhs, current);
  const Value& rhs = OperandValue(pred.rhs, current);
  if (pred.op == CmpOp::kLike) {
    if (!lhs.is_string() || !rhs.is_string()) return false;
    return rlscommon::WildcardMatch(rlscommon::LikeToGlob(rhs.AsString()),
                                    lhs.AsString());
  }
  // SQL three-valued logic: any comparison with NULL is not-true, except
  // "= NULL" which we treat as IS NULL (the RLS never generates IS NULL).
  const int cmp = lhs.Compare(rhs);
  const bool has_null = lhs.is_null() || rhs.is_null();
  switch (pred.op) {
    case CmpOp::kEq: return cmp == 0 && (lhs.is_null() == rhs.is_null());
    case CmpOp::kNe: return !has_null && cmp != 0;
    case CmpOp::kLt: return !has_null && cmp < 0;
    case CmpOp::kLe: return !has_null && cmp <= 0;
    case CmpOp::kGt: return !has_null && cmp > 0;
    case CmpOp::kGe: return !has_null && cmp >= 0;
    case CmpOp::kLike: return false;  // handled above
  }
  return false;
}

/// Candidate row producer for one source: either an index lookup result
/// or a full scan.
void EnumerateSource(Table* table,
                     const std::function<void(Rid)>& emit_candidate,
                     const BoundPredicate* driver,
                     const std::vector<Row>& current,
                     std::size_t source_index) {
  if (driver) {
    // Which side names this source's column?
    const BoundOperand* col_side = nullptr;
    const BoundOperand* val_side = nullptr;
    if (driver->lhs.is_column && driver->lhs.column.source == source_index) {
      col_side = &driver->lhs;
      val_side = &driver->rhs;
    } else {
      col_side = &driver->rhs;
      val_side = &driver->lhs;
    }
    const std::string& column =
        table->schema().columns()[col_side->column.column].name;
    const Value& key = OperandValue(*val_side, current);
    if (driver->op == CmpOp::kEq) {
      if (const rdb::HashIndex* idx = table->FindHashIndex(column)) {
        std::vector<Rid> rids;
        idx->Lookup(key, &rids);
        for (Rid rid : rids) emit_candidate(rid);
        return;
      }
      if (const rdb::OrderedIndex* idx = table->FindOrderedIndex(column)) {
        std::vector<Rid> rids;
        idx->Lookup(key, &rids);
        for (Rid rid : rids) emit_candidate(rid);
        return;
      }
    } else if (driver->op == CmpOp::kLt || driver->op == CmpOp::kLe) {
      if (const rdb::OrderedIndex* idx = table->FindOrderedIndex(column)) {
        std::vector<Rid> rids;
        if (driver->op == CmpOp::kLt) {
          idx->LookupLess(key, &rids);
        } else {
          idx->LookupRange(Value::Null(), key, &rids);
        }
        for (Rid rid : rids) emit_candidate(rid);
        return;
      }
    }
  }
  table->Scan([&](Rid rid, SlotState st) {
    if (st == SlotState::kLive) emit_candidate(rid);
    return true;
  });
}

/// Picks the driving predicate for `source_index`: a predicate at this
/// level whose column side belongs to this source, whose other side is
/// already bound (constant or lower source), comparing by =, < or <=, and
/// whose column has a usable index.
const BoundPredicate* PickDriver(const std::vector<BoundPredicate>& preds,
                                 const std::vector<Source>& sources,
                                 std::size_t source_index) {
  const BoundPredicate* fallback = nullptr;
  for (const BoundPredicate& p : preds) {
    if (p.level != source_index) continue;
    const BoundOperand* col_side = nullptr;
    const BoundOperand* other = nullptr;
    if (p.lhs.is_column && p.lhs.column.source == source_index) {
      col_side = &p.lhs;
      other = &p.rhs;
    } else if (p.rhs.is_column && p.rhs.column.source == source_index) {
      col_side = &p.rhs;
      other = &p.lhs;
    }
    if (!col_side) continue;
    if (other->is_column && other->column.source >= source_index) continue;
    Table* table = sources[source_index].table;
    const std::string& column =
        table->schema().columns()[col_side->column.column].name;
    if (p.op == CmpOp::kEq &&
        (table->FindHashIndex(column) || table->FindOrderedIndex(column))) {
      return &p;  // equality with an index: best
    }
    if ((p.op == CmpOp::kLt || p.op == CmpOp::kLe) &&
        table->FindOrderedIndex(column) && !fallback) {
      fallback = &p;
    }
  }
  return fallback;
}

/// Lock manager: takes shared or exclusive table locks in a canonical
/// order (by table name) to avoid deadlocks between concurrent statements.
class TableLocks {
 public:
  void AddShared(Table* table) { Add(table, /*exclusive=*/false); }
  void AddExclusive(Table* table) { Add(table, /*exclusive=*/true); }

  void Acquire() {
    std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
      return a.table->name() < b.table->name();
    });
    entries_.erase(std::unique(entries_.begin(), entries_.end(),
                               [](const Entry& a, const Entry& b) {
                                 return a.table == b.table;
                               }),
                   entries_.end());
    for (Entry& e : entries_) {
      if (e.exclusive) {
        e.table->mutex().lock();
      } else {
        e.table->mutex().lock_shared();
      }
    }
    held_ = true;
  }

  ~TableLocks() {
    if (!held_) return;
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->exclusive) {
        it->table->mutex().unlock();
      } else {
        it->table->mutex().unlock_shared();
      }
    }
  }

 private:
  struct Entry {
    Table* table;
    bool exclusive;
  };
  void Add(Table* table, bool exclusive) {
    for (Entry& e : entries_) {
      if (e.table == table) {
        e.exclusive |= exclusive;
        return;
      }
    }
    entries_.push_back({table, exclusive});
  }
  std::vector<Entry> entries_;
  bool held_ = false;
};

}  // namespace

Status Engine::ExecuteSql(std::string_view text, const std::vector<Value>& params,
                          Session* session, ResultSet* result) {
  Statement stmt;
  Status s = Parse(text, &stmt);
  if (!s.ok()) return s;
  return Execute(stmt, params, session, result);
}

Status Engine::Execute(const Statement& stmt, const std::vector<Value>& params,
                       Session* session, ResultSet* result) {
  *result = ResultSet{};
  // Recovery profiles: hold the txn gate shared across the window
  // between applying a mutation to the tables and reserving its WAL
  // LSN (or rolling back), so a checkpoint can wait out that window and
  // never snapshot uncommitted rows or effects its LSN stamp would
  // replay again.
  const bool mutating = std::holds_alternative<InsertStmt>(stmt) ||
                        std::holds_alternative<UpdateStmt>(stmt) ||
                        std::holds_alternative<DeleteStmt>(stmt);
  if (session && mutating && !session->holds_txn_gate_ &&
      db_->profile().wal_recovery) {
    db_->LockTxnGateShared();
    session->holds_txn_gate_ = true;
  }
  Status status = std::visit(
      [&](const auto& s) -> Status {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, SelectStmt>) {
          return ExecSelect(s, params, result);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return ExecInsert(s, params, session, result);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return ExecUpdate(s, params, session, result);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return ExecDelete(s, params, session, result);
        } else if constexpr (std::is_same_v<T, CreateTableStmt>) {
          return ExecCreateTable(s);
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          return ExecCreateIndex(s);
        } else if constexpr (std::is_same_v<T, DropTableStmt>) {
          return db_->DropTable(s.table);
        } else if constexpr (std::is_same_v<T, VacuumStmt>) {
          if (s.table.empty()) {
            db_->VacuumAll();
            return Status::Ok();
          }
          return db_->Vacuum(s.table);
        } else if constexpr (std::is_same_v<T, ExplainStmt>) {
          return ExecExplain(s, params, result);
        } else {
          return ExecTxn(s, session);
        }
      },
      stmt);
  if (!status.ok()) {
    // A failed statement outside a transaction has nothing left to
    // commit or roll back; do not keep blocking checkpoints.
    if (session && !session->in_txn_) ReleaseTxnGate(session);
    return status;
  }
  // Autocommit any buffered mutations when no transaction is open.
  if (session && !session->in_txn_ && !session->wal_buffer_.empty()) {
    session->undo_.clear();
    return CommitWal(session);
  }
  // Mutating statement that touched no rows outside a transaction: the
  // gate was taken but there is nothing to commit.
  if (session && !session->in_txn_) ReleaseTxnGate(session);
  if (session) result->last_insert_id = session->last_insert_id_;
  return Status::Ok();
}

Status Engine::ExecSelect(const SelectStmt& stmt, const std::vector<Value>& params,
                          ResultSet* result) {
  // Resolve sources.
  std::vector<Source> sources;
  auto add_source = [&](const TableRef& ref) -> Status {
    Table* table = db_->GetTable(ref.table);
    if (!table) return Status::Database("no table " + ref.table);
    const std::string& alias = ref.effective_alias();
    for (const Source& s : sources) {
      if (s.alias == alias) {
        return Status::InvalidArgument("duplicate table alias " + alias);
      }
    }
    sources.push_back({alias, table});
    return Status::Ok();
  };
  Status s = add_source(stmt.from);
  if (!s.ok()) return s;
  for (const JoinClause& join : stmt.joins) {
    s = add_source(join.table);
    if (!s.ok()) return s;
  }

  TableLocks locks;
  for (const Source& src : sources) locks.AddShared(src.table);
  locks.Acquire();

  // Bind predicates: WHERE plus JOIN ... ON conditions.
  std::vector<BoundPredicate> preds;
  preds.reserve(stmt.where.size() + stmt.joins.size());
  for (const JoinClause& join : stmt.joins) {
    BoundPredicate bp;
    s = BindPredicate(sources, join.on, params, &bp);
    if (!s.ok()) return s;
    preds.push_back(std::move(bp));
  }
  for (const Predicate& pred : stmt.where) {
    BoundPredicate bp;
    s = BindPredicate(sources, pred, params, &bp);
    if (!s.ok()) return s;
    preds.push_back(std::move(bp));
  }

  // Projection.
  std::vector<ResolvedColumn> projection;
  if (stmt.star) {
    for (std::size_t src = 0; src < sources.size(); ++src) {
      const auto& cols = sources[src].table->schema().columns();
      for (std::size_t c = 0; c < cols.size(); ++c) {
        projection.push_back({src, c});
        result->columns.push_back(sources[src].alias + "." + cols[c].name);
      }
    }
  } else if (stmt.count_star) {
    result->columns.push_back("count");
  } else {
    for (const ColumnRef& ref : stmt.columns) {
      ResolvedColumn rc;
      s = ResolveColumn(sources, ref, &rc);
      if (!s.ok()) return s;
      projection.push_back(rc);
      result->columns.push_back(ref.ToString());
    }
  }

  // ORDER BY / OFFSET disable the early-limit short circuit: every match
  // must be seen before sorting/slicing. Ascending ORDER BY a column of
  // one unfiltered table that has an ordered index instead walks that
  // index, so rows arrive sorted and LIMIT stops the walk.
  ResolvedColumn order_column;
  const bool ordered = stmt.order_by.has_value() && !stmt.count_star;
  const rdb::OrderedIndex* order_index = nullptr;
  if (ordered) {
    s = ResolveColumn(sources, *stmt.order_by, &order_column);
    if (!s.ok()) return s;
    if (sources.size() == 1 && preds.empty() && !stmt.order_desc) {
      const Table* table = sources[0].table;
      order_index =
          table->FindOrderedIndex(table->schema().columns()[order_column.column].name);
    }
  }
  const bool sort = ordered && !order_index;
  const uint64_t offset = stmt.offset.value_or(0);
  const bool early_limit = stmt.limit && !sort && offset == 0;

  uint64_t count = 0;
  bool done = false;
  std::vector<Row> current(sources.size());
  std::vector<Value> sort_keys;  // parallel to result->rows when ordered

  std::function<void(std::size_t)> bind_level = [&](std::size_t level) {
    if (done) return;
    if (level == sources.size()) {
      if (stmt.count_star) {
        ++count;
      } else {
        Row out;
        out.reserve(projection.size());
        for (const ResolvedColumn& rc : projection) {
          out.push_back(current[rc.source][rc.column]);
        }
        if (sort) {
          sort_keys.push_back(current[order_column.source][order_column.column]);
        }
        result->rows.push_back(std::move(out));
      }
      if (early_limit && !stmt.count_star && result->rows.size() >= *stmt.limit) {
        done = true;
      }
      return;
    }
    Table* table = sources[level].table;
    auto visit = [&](Rid rid) {
      if (done) return;
      if (!table->IsLive(rid)) {
        // Dead rid from a tombstoned index entry: the visibility
        // check still fetches and decodes the tuple (PostgreSQL
        // dead-tuple cost, paper Fig. 8).
        Row scratch;
        (void)table->ReadRow(rid, &scratch);
        return;
      }
      if (!table->ReadRow(rid, &current[level]).ok()) return;
      for (const BoundPredicate& p : preds) {
        if (p.level == level && !EvalPredicate(p, current)) return;
      }
      bind_level(level + 1);
    };
    if (order_index) {
      order_index->Walk([&](Rid rid) {
        visit(rid);
        return !done;
      });
      return;
    }
    EnumerateSource(table, visit, PickDriver(preds, sources, level), current, level);
  };
  bind_level(0);

  if (stmt.count_star) {
    result->rows.push_back({Value::Int(static_cast<int64_t>(count))});
    return Status::Ok();
  }

  if (sort) {
    // Stable sort by key (indices first, then permute).
    std::vector<std::size_t> perm(result->rows.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      const int cmp = sort_keys[a].Compare(sort_keys[b]);
      return stmt.order_desc ? cmp > 0 : cmp < 0;
    });
    std::vector<Row> sorted;
    sorted.reserve(perm.size());
    for (std::size_t i : perm) sorted.push_back(std::move(result->rows[i]));
    result->rows = std::move(sorted);
  }
  if (offset > 0 || (stmt.limit && !early_limit)) {
    std::vector<Row> page;
    for (std::size_t i = offset; i < result->rows.size(); ++i) {
      if (stmt.limit && page.size() >= *stmt.limit) break;
      page.push_back(std::move(result->rows[i]));
    }
    result->rows = std::move(page);
  }
  return Status::Ok();
}

Status Engine::ExecExplain(const ExplainStmt& stmt, const std::vector<Value>& params,
                           ResultSet* result) {
  const SelectStmt& sel = stmt.select;
  std::vector<Source> sources;
  auto add_source = [&](const TableRef& ref) -> Status {
    Table* table = db_->GetTable(ref.table);
    if (!table) return Status::Database("no table " + ref.table);
    sources.push_back({ref.effective_alias(), table});
    return Status::Ok();
  };
  Status s = add_source(sel.from);
  if (!s.ok()) return s;
  for (const JoinClause& join : sel.joins) {
    s = add_source(join.table);
    if (!s.ok()) return s;
  }

  std::vector<BoundPredicate> preds;
  for (const JoinClause& join : sel.joins) {
    BoundPredicate bp;
    s = BindPredicate(sources, join.on, params, &bp);
    if (!s.ok()) return s;
    preds.push_back(std::move(bp));
  }
  for (const Predicate& pred : sel.where) {
    BoundPredicate bp;
    s = BindPredicate(sources, pred, params, &bp);
    if (!s.ok()) return s;
    preds.push_back(std::move(bp));
  }

  result->columns = {"source", "access_path"};
  for (std::size_t level = 0; level < sources.size(); ++level) {
    Table* table = sources[level].table;
    const BoundPredicate* driver = PickDriver(preds, sources, level);
    std::string path;
    if (driver) {
      const BoundOperand* col_side =
          (driver->lhs.is_column && driver->lhs.column.source == level)
              ? &driver->lhs
              : &driver->rhs;
      const std::string& column =
          table->schema().columns()[col_side->column.column].name;
      const char* kind = table->FindHashIndex(column) ? "hash index" : "ordered index";
      const char* op = driver->op == CmpOp::kEq ? "=" : (driver->op == CmpOp::kLt ? "<" : "<=");
      path = std::string(kind) + " on " + column + " (" + op + ")";
    } else {
      path = "sequential scan";
    }
    result->rows.push_back(
        {Value::String(sources[level].alias), Value::String(path)});
  }
  return Status::Ok();
}

Status Engine::ExecInsert(const InsertStmt& stmt, const std::vector<Value>& params,
                          Session* session, ResultSet* result) {
  Table* table = db_->GetTable(stmt.table);
  if (!table) return Status::Database("no table " + stmt.table);
  const rdb::TableSchema& schema = table->schema();

  // Map statement columns to schema positions.
  std::vector<std::size_t> positions;
  if (stmt.columns.empty()) {
    for (std::size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      auto col = schema.FindColumn(name);
      if (!col) return Status::InvalidArgument("no column " + name + " in " + stmt.table);
      positions.push_back(*col);
    }
  }

  TableLocks locks;
  locks.AddExclusive(table);
  locks.Acquire();

  std::vector<Rid> inserted;
  for (const std::vector<Operand>& values : stmt.rows) {
    if (values.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch for " + stmt.table);
    }
    Row row(schema.num_columns(), Value::Null());
    for (std::size_t i = 0; i < values.size(); ++i) {
      BoundOperand bound;
      Status s = BindOperand({}, values[i], params, &bound);
      if (!s.ok()) return s;
      Value v = bound.constant;
      // Coerce ints into TIMESTAMP columns.
      if (schema.columns()[positions[i]].type == rdb::ColumnType::kTimestamp &&
          v.is_int()) {
        v = Value::Timestamp(v.AsInt());
      }
      row[positions[i]] = std::move(v);
    }
    Rid rid;
    int64_t auto_id = 0;
    Status s = table->Insert(row, &rid, &auto_id);
    if (!s.ok()) {
      // Statement atomicity: undo this statement's own inserts.
      for (auto it = inserted.rbegin(); it != inserted.rend(); ++it) {
        (void)table->Delete(*it);
      }
      return s;
    }
    inserted.push_back(rid);
    if (session) {
      if (auto_id != 0) {
        session->last_insert_id_ = auto_id;
        // Record the row as stored (with the assigned id) for undo.
        if (auto auto_col = schema.AutoIncrementColumn()) {
          row[*auto_col] = Value::Int(auto_id);
        }
      }
      session->undo_.push_back({UndoRecord::Kind::kInsert, stmt.table, row, {}});
      // The logged image carries the assigned auto-increment id, so WAL
      // replay re-inserts the identical row.
      rdb::AppendInsertRecord(stmt.table, row, &session->wal_buffer_);
    }
  }
  result->affected = inserted.size();
  if (session) result->last_insert_id = session->last_insert_id_;
  return Status::Ok();
}

namespace {

/// Shared match enumeration for UPDATE/DELETE (single table, exclusive
/// lock already held). Collects matching rids + row images first so
/// mutation does not disturb iteration.
Status CollectMatches(Table* table, const std::string& alias,
                      const std::vector<Predicate>& where,
                      const std::vector<Value>& params,
                      std::vector<std::pair<Rid, Row>>* out) {
  std::vector<Source> sources{{alias, table}};
  std::vector<BoundPredicate> preds;
  for (const Predicate& pred : where) {
    BoundPredicate bp;
    Status s = BindPredicate(sources, pred, params, &bp);
    if (!s.ok()) return s;
    preds.push_back(std::move(bp));
  }
  std::vector<Row> current(1);
  const BoundPredicate* driver = PickDriver(preds, sources, 0);
  EnumerateSource(
      table,
      [&](Rid rid) {
        if (!table->IsLive(rid)) {
          Row scratch;  // dead-tuple visibility fetch (see ExecSelect)
          (void)table->ReadRow(rid, &scratch);
          return;
        }
        if (!table->ReadRow(rid, &current[0]).ok()) return;
        for (const BoundPredicate& p : preds) {
          if (!EvalPredicate(p, current)) return;
        }
        out->emplace_back(rid, current[0]);
      },
      driver, current, 0);
  return Status::Ok();
}

}  // namespace

Status Engine::ExecUpdate(const UpdateStmt& stmt, const std::vector<Value>& params,
                          Session* session, ResultSet* result) {
  Table* table = db_->GetTable(stmt.table);
  if (!table) return Status::Database("no table " + stmt.table);
  const rdb::TableSchema& schema = table->schema();

  struct BoundSet {
    std::size_t column;
    bool is_delta;
    int64_t delta;
    Value value;
  };
  std::vector<BoundSet> sets;
  for (const Assignment& a : stmt.sets) {
    auto col = schema.FindColumn(a.column);
    if (!col) return Status::InvalidArgument("no column " + a.column);
    BoundSet bs;
    bs.column = *col;
    bs.is_delta = a.is_delta;
    bs.delta = a.delta;
    if (!a.is_delta) {
      BoundOperand bound;
      Status s = BindOperand({}, a.value, params, &bound);
      if (!s.ok()) return s;
      bs.value = bound.constant;
      if (schema.columns()[*col].type == rdb::ColumnType::kTimestamp &&
          bs.value.is_int()) {
        bs.value = Value::Timestamp(bs.value.AsInt());
      }
    }
    sets.push_back(std::move(bs));
  }

  TableLocks locks;
  locks.AddExclusive(table);
  locks.Acquire();

  std::vector<std::pair<Rid, Row>> matches;
  Status s = CollectMatches(table, stmt.table, stmt.where, params, &matches);
  if (!s.ok()) return s;

  for (auto& [rid, old_row] : matches) {
    Row new_row = old_row;
    for (const BoundSet& bs : sets) {
      if (bs.is_delta) {
        if (!new_row[bs.column].is_int() && !new_row[bs.column].is_timestamp()) {
          return Status::InvalidArgument("delta update on non-integer column");
        }
        new_row[bs.column] = Value::Int(new_row[bs.column].AsInt() + bs.delta);
      } else {
        new_row[bs.column] = bs.value;
      }
    }
    Rid new_rid;
    s = table->Update(rid, new_row, &new_rid);
    if (!s.ok()) return s;
    if (session) {
      session->undo_.push_back({UndoRecord::Kind::kUpdate, stmt.table, new_row, old_row});
      // Both images: replay locates the row by its old value before
      // installing the new one.
      rdb::AppendUpdateRecord(stmt.table, old_row, new_row, &session->wal_buffer_);
    }
    ++result->affected;
  }
  return Status::Ok();
}

Status Engine::ExecDelete(const DeleteStmt& stmt, const std::vector<Value>& params,
                          Session* session, ResultSet* result) {
  Table* table = db_->GetTable(stmt.table);
  if (!table) return Status::Database("no table " + stmt.table);

  TableLocks locks;
  locks.AddExclusive(table);
  locks.Acquire();

  std::vector<std::pair<Rid, Row>> matches;
  Status s = CollectMatches(table, stmt.table, stmt.where, params, &matches);
  if (!s.ok()) return s;

  for (auto& [rid, old_row] : matches) {
    s = table->Delete(rid);
    if (!s.ok()) return s;
    if (session) {
      session->undo_.push_back({UndoRecord::Kind::kDelete, stmt.table, {}, old_row});
      rdb::AppendDeleteRecord(stmt.table, old_row, &session->wal_buffer_);
    }
    ++result->affected;
  }
  return Status::Ok();
}

Status Engine::ExecCreateTable(const CreateTableStmt& stmt) {
  Status s = db_->CreateTable(stmt.schema);
  if (!s.ok()) return s;
  if (!stmt.primary_key.empty()) {
    Table* table = db_->GetTable(stmt.schema.name());
    std::unique_lock<std::shared_mutex> lock(table->mutex());
    return table->CreateIndex("pk_" + stmt.schema.name(), stmt.primary_key,
                              rdb::IndexKind::kHash, /*unique=*/true);
  }
  return Status::Ok();
}

Status Engine::ExecCreateIndex(const CreateIndexStmt& stmt) {
  Table* table = db_->GetTable(stmt.table);
  if (!table) return Status::Database("no table " + stmt.table);
  std::unique_lock<std::shared_mutex> lock(table->mutex());
  return table->CreateIndex(stmt.index, stmt.column,
                            stmt.ordered ? rdb::IndexKind::kOrdered
                                         : rdb::IndexKind::kHash,
                            stmt.unique);
}

Status Engine::ExecTxn(const TxnStmt& stmt, Session* session) {
  if (!session) return Status::InvalidArgument("transaction statements need a session");
  switch (stmt.kind) {
    case TxnStmt::Kind::kBegin:
      if (session->in_txn_) return Status::InvalidArgument("transaction already open");
      session->in_txn_ = true;
      session->undo_.clear();
      session->wal_buffer_.clear();
      return Status::Ok();
    case TxnStmt::Kind::kCommit: {
      if (!session->in_txn_) return Status::InvalidArgument("no open transaction");
      session->in_txn_ = false;
      session->undo_.clear();
      return CommitWal(session);
    }
    case TxnStmt::Kind::kRollback: {
      if (!session->in_txn_) return Status::InvalidArgument("no open transaction");
      session->in_txn_ = false;
      session->wal_buffer_.clear();
      Status s = ApplyUndo(session, 0);
      ReleaseTxnGate(session);
      return s;
    }
  }
  return Status::Internal("bad txn kind");
}

Status Engine::CommitWal(Session* session) {
  rdb::Wal::CommitTicket ticket;
  Status s = CommitWalBegin(session, &ticket);
  if (!s.ok()) return s;
  return CommitWait(&ticket);
}

Status Engine::CommitWalBegin(Session* session,
                              rdb::Wal::CommitTicket* ticket) {
  // Stage stamp on the ambient request span: time up to here was the
  // transaction's parse/plan/execute work; the WAL commit stamps
  // wal_sync once its batch's sync completes.
  rlscommon::StampHop("db_txn");
  const rdb::BackendProfile& profile = db_->profile();
  Status s = db_->wal().CommitBegin(session->wal_buffer_,
                                    profile.durable_flush,
                                    profile.durable_flush_penalty, ticket);
  session->wal_buffer_.clear();
  // The WAL has reserved this transaction's LSN (or rejected it): a
  // checkpoint snapshot from here on accounts for it correctly.
  ReleaseTxnGate(session);
  return s;
}

Status Engine::CommitBegin(Session* session, rdb::Wal::CommitTicket* ticket) {
  if (!session) return Status::InvalidArgument("commit needs a session");
  if (!session->in_txn_) return Status::InvalidArgument("no open transaction");
  session->in_txn_ = false;
  session->undo_.clear();
  return CommitWalBegin(session, ticket);
}

Status Engine::CommitWait(rdb::Wal::CommitTicket* ticket) {
  Status s = db_->wal().CommitFinish(ticket);
  // A batch that crossed the recycle threshold left its checkpoint
  // pending; run it now that this thread holds no locks.
  Status ckpt = db_->MaybeCheckpoint();
  return s.ok() ? ckpt : s;
}

Status Engine::RollbackToSavepoint(Session* session, const Savepoint& sp) {
  if (!session) return Status::InvalidArgument("savepoints need a session");
  if (session->wal_buffer_.size() > sp.wal_size) {
    session->wal_buffer_.resize(sp.wal_size);
  }
  return ApplyUndo(session, sp.undo_size);
}

void Engine::ReleaseTxnGate(Session* session) {
  if (!session->holds_txn_gate_) return;
  session->holds_txn_gate_ = false;
  db_->UnlockTxnGateShared();
}

Status Engine::ApplyUndo(Session* session, std::size_t down_to) {
  Status first_error = Status::Ok();
  while (session->undo_.size() > down_to) {
    UndoRecord rec = std::move(session->undo_.back());
    session->undo_.pop_back();
    Table* table = db_->GetTable(rec.table);
    if (!table) continue;  // table dropped mid-transaction
    std::unique_lock<std::shared_mutex> lock(table->mutex());
    Status s;
    switch (rec.kind) {
      case UndoRecord::Kind::kInsert:
        s = table->DeleteByValue(rec.row);
        break;
      case UndoRecord::Kind::kDelete:
        s = table->Insert(std::move(rec.old_row), nullptr, nullptr);
        break;
      case UndoRecord::Kind::kUpdate: {
        s = table->DeleteByValue(rec.row);
        if (s.ok()) s = table->Insert(std::move(rec.old_row), nullptr, nullptr);
        break;
      }
    }
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace sql
