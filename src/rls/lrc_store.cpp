#include "rls/lrc_store.h"

#include "common/logging.h"
#include "common/strings.h"

namespace rls {
namespace {

using dbapi::Connection;
using rlscommon::Status;
using sql::ResultSet;

/// Runs `body` inside BEGIN/COMMIT, rolling back on failure.
Status WithTxn(Connection& conn, const std::function<Status()>& body) {
  Status s = conn.Begin();
  if (!s.ok()) return s;
  s = body();
  if (!s.ok()) {
    (void)conn.Rollback();
    return s;
  }
  return conn.Commit();
}

/// WithTxn with a split commit: the WAL slot is reserved (fixing replay
/// order) while `write_lock` is still held, then the lock drops before
/// parking for the batch sync, so concurrent writers can share one
/// fdatasync. `on_logged` fires under the lock once the transaction is
/// in the log's commit order (soft-state events stay ordered).
Status WithTxnDeferred(Connection& conn, std::unique_lock<std::mutex>& write_lock,
                       const std::function<Status()>& body,
                       const std::function<void()>& on_logged) {
  Status s = conn.Begin();
  if (!s.ok()) return s;
  s = body();
  if (!s.ok()) {
    (void)conn.Rollback();
    return s;
  }
  rdb::Wal::CommitTicket ticket;
  s = conn.CommitBegin(&ticket);
  if (!s.ok()) return s;
  if (on_logged) on_logged();
  write_lock.unlock();
  return conn.CommitFinish(&ticket);
}

const char* AttrTable(AttrType type) {
  switch (type) {
    case AttrType::kString: return "t_str_attr";
    case AttrType::kInt: return "t_int_attr";
    case AttrType::kFloat: return "t_flt_attr";
    case AttrType::kDate: return "t_date_attr";
  }
  return "t_str_attr";
}

const char* ObjectTable(AttrObject object) {
  return object == AttrObject::kLogical ? "t_lfn" : "t_pfn";
}

rdb::Value ToDbValue(const AttrValue& v) {
  switch (v.type) {
    case AttrType::kString: return rdb::Value::String(v.string_value);
    case AttrType::kInt: return rdb::Value::Int(v.int_value);
    case AttrType::kFloat: return rdb::Value::Double(v.float_value);
    case AttrType::kDate: return rdb::Value::Timestamp(v.int_value);
  }
  return rdb::Value::Null();
}

AttrValue FromDbValue(AttrType type, const rdb::Value& v) {
  switch (type) {
    case AttrType::kString: return AttrValue::Str(v.is_string() ? v.AsString() : "");
    case AttrType::kInt: return AttrValue::Int(v.is_null() ? 0 : v.AsInt());
    case AttrType::kFloat: return AttrValue::Float(v.is_null() ? 0.0 : v.NumericValue());
    case AttrType::kDate: return AttrValue::Date(v.is_null() ? 0 : v.AsInt());
  }
  return AttrValue();
}

const char* CmpSql(AttrCmp cmp) {
  switch (cmp) {
    case AttrCmp::kEq: return "=";
    case AttrCmp::kNe: return "!=";
    case AttrCmp::kLt: return "<";
    case AttrCmp::kLe: return "<=";
    case AttrCmp::kGt: return ">";
    case AttrCmp::kGe: return ">=";
  }
  return "=";
}

}  // namespace

std::string GlobToLike(std::string_view glob) {
  std::string out;
  out.reserve(glob.size());
  for (char c : glob) {
    switch (c) {
      case '*': out.push_back('%'); break;
      case '?': out.push_back('_'); break;
      // Literal '%'/'_' in names pass through and act as wildcards; the
      // LIKE dialect has no escape syntax (documented limitation).
      default: out.push_back(c);
    }
  }
  return out;
}

Status LrcStore::Create(dbapi::Environment& env, const std::string& dsn,
                        std::unique_ptr<LrcStore>* out) {
  std::unique_ptr<LrcStore> store(new LrcStore(env, dsn));
  Status s = store->InitSchema();
  if (!s.ok()) return s;
  // Replay the WAL once the schema exists (DDL is not logged; only row
  // mutations are). No-op unless the profile enables wal_recovery. The
  // RLI's relational store is intentionally NOT recovered: RLI state is
  // soft state the paper rebuilds from LRC updates (§2).
  store->db_ = env.Find(dsn);
  if (store->db_) {
    s = store->db_->Recover();
    if (!s.ok()) return s;
  }
  *out = std::move(store);
  return Status::Ok();
}

Status LrcStore::InitSchema() {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  // Fig. 3 of the paper, LRC database.
  static constexpr const char* kSchema[] = {
      "CREATE TABLE t_lfn (id INT AUTO_INCREMENT PRIMARY KEY,"
      " name VARCHAR(250) NOT NULL, ref INT)",
      "CREATE UNIQUE INDEX idx_lfn_name ON t_lfn (name)",
      "CREATE TABLE t_pfn (id INT AUTO_INCREMENT PRIMARY KEY,"
      " name VARCHAR(250) NOT NULL, ref INT)",
      "CREATE UNIQUE INDEX idx_pfn_name ON t_pfn (name)",
      "CREATE TABLE t_map (lfn_id INT NOT NULL, pfn_id INT NOT NULL)",
      "CREATE INDEX idx_map_lfn ON t_map (lfn_id)",
      "CREATE INDEX idx_map_pfn ON t_map (pfn_id)",
      "CREATE TABLE t_attribute (id INT AUTO_INCREMENT PRIMARY KEY,"
      " name VARCHAR(250) NOT NULL, objtype INT NOT NULL, type INT NOT NULL)",
      "CREATE INDEX idx_attr_name ON t_attribute (name)",
      "CREATE TABLE t_str_attr (obj_id INT, attr_id INT, value VARCHAR(250))",
      "CREATE INDEX idx_str_obj ON t_str_attr (obj_id)",
      "CREATE ORDERED INDEX idx_str_val ON t_str_attr (value)",
      "CREATE TABLE t_int_attr (obj_id INT, attr_id INT, value INT)",
      "CREATE INDEX idx_int_obj ON t_int_attr (obj_id)",
      "CREATE ORDERED INDEX idx_int_val ON t_int_attr (value)",
      "CREATE TABLE t_flt_attr (obj_id INT, attr_id INT, value DOUBLE)",
      "CREATE INDEX idx_flt_obj ON t_flt_attr (obj_id)",
      "CREATE ORDERED INDEX idx_flt_val ON t_flt_attr (value)",
      "CREATE TABLE t_date_attr (obj_id INT, attr_id INT, value TIMESTAMP)",
      "CREATE INDEX idx_date_obj ON t_date_attr (obj_id)",
      "CREATE ORDERED INDEX idx_date_val ON t_date_attr (value)",
      "CREATE TABLE t_rli (id INT AUTO_INCREMENT PRIMARY KEY,"
      " flags INT, name VARCHAR(250) NOT NULL)",
      "CREATE UNIQUE INDEX idx_rli_name ON t_rli (name)",
      "CREATE TABLE t_rlipartition (rli_id INT NOT NULL, pattern VARCHAR(250))",
      "CREATE INDEX idx_part_rli ON t_rlipartition (rli_id)",
  };
  for (const char* ddl : kSchema) {
    ResultSet rs;
    s = conn->Execute(ddl, &rs);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status LrcStore::LookupId(Connection& conn, const char* table,
                          const std::string& name, int64_t* id) {
  ResultSet rs;
  Status s = conn.Execute(std::string("SELECT id FROM ") + table + " WHERE name = ?",
                          {rdb::Value::String(name)}, &rs);
  if (!s.ok()) return s;
  *id = rs.empty() ? 0 : rs.at(0, 0).AsInt();
  return Status::Ok();
}

Status LrcStore::InsertMappingTx(Connection& conn, const std::string& logical,
                                 const std::string& target, bool create_new,
                                 bool* lfn_added) {
  int64_t lfn_id = 0;
  Status st = LookupId(conn, "t_lfn", logical, &lfn_id);
  if (!st.ok()) return st;
  if (create_new && lfn_id != 0) {
    return Status::AlreadyExists("logical name already registered: " + logical);
  }
  if (!create_new && lfn_id == 0) {
    return Status::NotFound("logical name not registered: " + logical);
  }

  int64_t pfn_id = 0;
  st = LookupId(conn, "t_pfn", target, &pfn_id);
  if (!st.ok()) return st;

  if (!create_new && pfn_id != 0) {
    // Duplicate-mapping check (only possible when both ends exist).
    ResultSet rs;
    st = conn.Execute("SELECT COUNT(*) FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
                      {rdb::Value::Int(lfn_id), rdb::Value::Int(pfn_id)}, &rs);
    if (!st.ok()) return st;
    if (rs.at(0, 0).AsInt() > 0) {
      return Status::AlreadyExists("mapping already exists: " + logical + " -> " +
                                   target);
    }
  }

  ResultSet rs;
  if (lfn_id == 0) {
    st = conn.Execute("INSERT INTO t_lfn (name, ref) VALUES (?, 1)",
                      {rdb::Value::String(logical)}, &rs);
    if (!st.ok()) return st;
    lfn_id = rs.last_insert_id;
    *lfn_added = true;
  } else {
    st = conn.Execute("UPDATE t_lfn SET ref = ref + 1 WHERE id = ?",
                      {rdb::Value::Int(lfn_id)}, &rs);
    if (!st.ok()) return st;
  }

  if (pfn_id == 0) {
    st = conn.Execute("INSERT INTO t_pfn (name, ref) VALUES (?, 1)",
                      {rdb::Value::String(target)}, &rs);
    if (!st.ok()) return st;
    pfn_id = rs.last_insert_id;
  } else {
    st = conn.Execute("UPDATE t_pfn SET ref = ref + 1 WHERE id = ?",
                      {rdb::Value::Int(pfn_id)}, &rs);
    if (!st.ok()) return st;
  }

  return conn.Execute("INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                      {rdb::Value::Int(lfn_id), rdb::Value::Int(pfn_id)}, &rs);
}

Status LrcStore::InsertMapping(const std::string& logical, const std::string& target,
                               bool create_new) {
  std::unique_lock<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;

  bool lfn_added = false;
  return WithTxnDeferred(
      *conn, write_lock,
      [&] { return InsertMappingTx(*conn, logical, target, create_new, &lfn_added); },
      [&] {
        if (lfn_added && observer_) observer_(logical, /*added=*/true);
      });
}

Status LrcStore::CreateMapping(const std::string& logical, const std::string& target) {
  return InsertMapping(logical, target, /*create_new=*/true);
}

Status LrcStore::AddMapping(const std::string& logical, const std::string& target) {
  return InsertMapping(logical, target, /*create_new=*/false);
}

Status LrcStore::DeleteMappingTx(Connection& conn, const std::string& logical,
                                 const std::string& target, bool* lfn_removed) {
  int64_t lfn_id = 0, pfn_id = 0;
  Status st = LookupId(conn, "t_lfn", logical, &lfn_id);
  if (!st.ok()) return st;
  if (lfn_id == 0) return Status::NotFound("logical name not registered: " + logical);
  st = LookupId(conn, "t_pfn", target, &pfn_id);
  if (!st.ok()) return st;
  if (pfn_id == 0) return Status::NotFound("target name not registered: " + target);

  ResultSet rs;
  st = conn.Execute("DELETE FROM t_map WHERE lfn_id = ? AND pfn_id = ?",
                    {rdb::Value::Int(lfn_id), rdb::Value::Int(pfn_id)}, &rs);
  if (!st.ok()) return st;
  if (rs.affected == 0) {
    return Status::NotFound("mapping does not exist: " + logical + " -> " + target);
  }

  // Decrement / remove the logical-name row.
  st = conn.Execute("SELECT ref FROM t_lfn WHERE id = ?",
                    {rdb::Value::Int(lfn_id)}, &rs);
  if (!st.ok()) return st;
  if (rs.at(0, 0).AsInt() <= 1) {
    st = conn.Execute("DELETE FROM t_lfn WHERE id = ?", {rdb::Value::Int(lfn_id)}, &rs);
    if (!st.ok()) return st;
    *lfn_removed = true;
    st = DeleteObjectAttributes(conn, lfn_id, AttrObject::kLogical);
    if (!st.ok()) return st;
  } else {
    st = conn.Execute("UPDATE t_lfn SET ref = ref - 1 WHERE id = ?",
                      {rdb::Value::Int(lfn_id)}, &rs);
    if (!st.ok()) return st;
  }

  // Decrement / remove the target-name row.
  st = conn.Execute("SELECT ref FROM t_pfn WHERE id = ?",
                    {rdb::Value::Int(pfn_id)}, &rs);
  if (!st.ok()) return st;
  if (rs.at(0, 0).AsInt() <= 1) {
    st = conn.Execute("DELETE FROM t_pfn WHERE id = ?", {rdb::Value::Int(pfn_id)}, &rs);
    if (!st.ok()) return st;
    st = DeleteObjectAttributes(conn, pfn_id, AttrObject::kTarget);
    if (!st.ok()) return st;
  } else {
    st = conn.Execute("UPDATE t_pfn SET ref = ref - 1 WHERE id = ?",
                      {rdb::Value::Int(pfn_id)}, &rs);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status LrcStore::DeleteMapping(const std::string& logical, const std::string& target) {
  std::unique_lock<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;

  bool lfn_removed = false;
  return WithTxnDeferred(
      *conn, write_lock,
      [&] { return DeleteMappingTx(*conn, logical, target, &lfn_removed); },
      [&] {
        if (lfn_removed && observer_) observer_(logical, /*added=*/false);
      });
}

Status LrcStore::MutateMappings(const std::vector<Mapping>& mappings, MappingOp op,
                                BulkStatusResponse* result) {
  result->succeeded = 0;
  result->failures.clear();
  if (mappings.empty()) return Status::Ok();

  std::unique_lock<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  s = conn->Begin();
  if (!s.ok()) return s;

  // Soft-state events collected per item, fired in order once the batch
  // is in the log's commit order.
  std::vector<std::pair<const std::string*, bool>> events;
  for (uint32_t i = 0; i < mappings.size(); ++i) {
    const Mapping& m = mappings[i];
    const sql::Savepoint sp = conn->Savepoint();
    bool lfn_added = false, lfn_removed = false;
    Status item = op == MappingOp::kDelete
                      ? DeleteMappingTx(*conn, m.logical, m.target, &lfn_removed)
                      : InsertMappingTx(*conn, m.logical, m.target,
                                        op == MappingOp::kCreate, &lfn_added);
    if (item.ok()) {
      ++result->succeeded;
      if (lfn_added) events.emplace_back(&m.logical, true);
      if (lfn_removed) events.emplace_back(&m.logical, false);
    } else {
      Status undo = conn->RollbackToSavepoint(sp);
      if (!undo.ok()) {
        // Undo failed: the in-memory state is suspect, drop the batch.
        (void)conn->Rollback();
        return undo;
      }
      result->failures.push_back({i, item.code()});
    }
  }

  rdb::Wal::CommitTicket ticket;
  s = conn->CommitBegin(&ticket);
  if (!s.ok()) return s;
  if (observer_) {
    for (const auto& [logical, added] : events) observer_(*logical, added);
  }
  write_lock.unlock();
  return conn->CommitFinish(&ticket);
}

Status LrcStore::CreateMappings(const std::vector<Mapping>& mappings,
                                BulkStatusResponse* result) {
  return MutateMappings(mappings, MappingOp::kCreate, result);
}

Status LrcStore::AddMappings(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return MutateMappings(mappings, MappingOp::kAdd, result);
}

Status LrcStore::DeleteMappings(const std::vector<Mapping>& mappings,
                                BulkStatusResponse* result) {
  return MutateMappings(mappings, MappingOp::kDelete, result);
}

namespace {

/// Applies offset/limit paging to a fetched column, appending to `out`.
void PageInto(const ResultSet& rs, std::size_t column, uint32_t offset,
              uint32_t limit, std::vector<std::string>* out) {
  out->clear();
  for (std::size_t i = offset; i < rs.size(); ++i) {
    if (limit > 0 && out->size() >= limit) break;
    out->push_back(rs.rows[i][column].AsString());
  }
}

}  // namespace

Status LrcStore::QueryLogical(const std::string& logical,
                              std::vector<std::string>* targets, uint32_t offset,
                              uint32_t limit) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute(
      "SELECT t_pfn.name FROM t_lfn"
      " JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
      " WHERE t_lfn.name = ?",
      {rdb::Value::String(logical)}, &rs);
  if (!s.ok()) return s;
  if (rs.empty()) return Status::NotFound("no mappings for logical name: " + logical);
  PageInto(rs, 0, offset, limit, targets);
  return Status::Ok();
}

Status LrcStore::QueryTarget(const std::string& target,
                             std::vector<std::string>* logicals, uint32_t offset,
                             uint32_t limit) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute(
      "SELECT t_lfn.name FROM t_pfn"
      " JOIN t_map ON t_pfn.id = t_map.pfn_id"
      " JOIN t_lfn ON t_map.lfn_id = t_lfn.id"
      " WHERE t_pfn.name = ?",
      {rdb::Value::String(target)}, &rs);
  if (!s.ok()) return s;
  if (rs.empty()) return Status::NotFound("no mappings for target name: " + target);
  PageInto(rs, 0, offset, limit, logicals);
  return Status::Ok();
}

Status LrcStore::WildcardQuery(const std::string& pattern, uint32_t limit,
                               std::vector<Mapping>* out, uint32_t offset) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  std::string sql =
      "SELECT t_lfn.name, t_pfn.name FROM t_lfn"
      " JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
      " WHERE t_lfn.name LIKE ?";
  // Paging pushed down into the SQL layer.
  if (limit > 0) sql += " LIMIT " + std::to_string(limit);
  if (offset > 0) sql += " OFFSET " + std::to_string(offset);
  ResultSet rs;
  s = conn->Execute(sql, {rdb::Value::String(GlobToLike(pattern))}, &rs);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(rs.size());
  for (const rdb::Row& row : rs.rows) {
    out->push_back(Mapping{row[0].AsString(), row[1].AsString()});
  }
  return Status::Ok();
}

bool LrcStore::LogicalExists(const std::string& logical) const {
  dbapi::ConnectionPool::Lease conn;
  if (!pool_.Acquire(&conn).ok()) return false;
  int64_t id = 0;
  if (!LookupId(*conn, "t_lfn", logical, &id).ok()) return false;
  return id != 0;
}

// --- attributes ---

Status LrcStore::DefineAttribute(const std::string& name, AttrObject object,
                                 AttrType type) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    ResultSet rs;
    Status st = conn->Execute(
        "SELECT id FROM t_attribute WHERE name = ? AND objtype = ?",
        {rdb::Value::String(name), rdb::Value::Int(static_cast<int64_t>(object))}, &rs);
    if (!st.ok()) return st;
    if (!rs.empty()) {
      return Status::AlreadyExists("attribute already defined: " + name);
    }
    return conn->Execute(
        "INSERT INTO t_attribute (name, objtype, type) VALUES (?, ?, ?)",
        {rdb::Value::String(name), rdb::Value::Int(static_cast<int64_t>(object)),
         rdb::Value::Int(static_cast<int64_t>(type))},
        &rs);
  });
}

Status LrcStore::UndefineAttribute(const std::string& name, AttrObject object) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t attr_id = 0;
    AttrType type;
    Status st = LookupAttribute(*conn, name, object, &attr_id, &type);
    if (!st.ok()) return st;
    ResultSet rs;
    st = conn->Execute(std::string("DELETE FROM ") + AttrTable(type) +
                           " WHERE attr_id = ?",
                       {rdb::Value::Int(attr_id)}, &rs);
    if (!st.ok()) return st;
    return conn->Execute("DELETE FROM t_attribute WHERE id = ?",
                         {rdb::Value::Int(attr_id)}, &rs);
  });
}

Status LrcStore::LookupAttribute(dbapi::Connection& conn, const std::string& name,
                                 AttrObject object, int64_t* attr_id, AttrType* type) {
  ResultSet rs;
  Status s = conn.Execute(
      "SELECT id, type FROM t_attribute WHERE name = ? AND objtype = ?",
      {rdb::Value::String(name), rdb::Value::Int(static_cast<int64_t>(object))}, &rs);
  if (!s.ok()) return s;
  if (rs.empty()) return Status::NotFound("attribute not defined: " + name);
  *attr_id = rs.at(0, 0).AsInt();
  *type = static_cast<AttrType>(rs.at(0, 1).AsInt());
  return Status::Ok();
}

Status LrcStore::DeleteObjectAttributes(dbapi::Connection& conn, int64_t obj_id,
                                        AttrObject object) {
  // Fast path: no attributes defined at all (the hot benchmark loop).
  ResultSet rs;
  Status s = conn.Execute("SELECT COUNT(*) FROM t_attribute", &rs);
  if (!s.ok()) return s;
  if (rs.at(0, 0).AsInt() == 0) return Status::Ok();

  s = conn.Execute("SELECT id, type FROM t_attribute WHERE objtype = ?",
                   {rdb::Value::Int(static_cast<int64_t>(object))}, &rs);
  if (!s.ok()) return s;
  for (const rdb::Row& row : rs.rows) {
    const int64_t attr_id = row[0].AsInt();
    const AttrType type = static_cast<AttrType>(row[1].AsInt());
    ResultSet del;
    s = conn.Execute(std::string("DELETE FROM ") + AttrTable(type) +
                         " WHERE obj_id = ? AND attr_id = ?",
                     {rdb::Value::Int(obj_id), rdb::Value::Int(attr_id)}, &del);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status LrcStore::AddAttribute(const AttrValueRequest& request) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t attr_id = 0;
    AttrType type;
    Status st = LookupAttribute(*conn, request.attr_name, request.object, &attr_id, &type);
    if (!st.ok()) return st;
    if (type != request.value.type) {
      return Status::InvalidArgument("attribute value type mismatch for " +
                                     request.attr_name);
    }
    int64_t obj_id = 0;
    st = LookupId(*conn, ObjectTable(request.object), request.object_name, &obj_id);
    if (!st.ok()) return st;
    if (obj_id == 0) return Status::NotFound("object not registered: " + request.object_name);

    ResultSet rs;
    st = conn->Execute(std::string("SELECT COUNT(*) FROM ") + AttrTable(type) +
                           " WHERE obj_id = ? AND attr_id = ?",
                       {rdb::Value::Int(obj_id), rdb::Value::Int(attr_id)}, &rs);
    if (!st.ok()) return st;
    if (rs.at(0, 0).AsInt() > 0) {
      return Status::AlreadyExists("attribute already set on " + request.object_name);
    }
    return conn->Execute(std::string("INSERT INTO ") + AttrTable(type) +
                             " (obj_id, attr_id, value) VALUES (?, ?, ?)",
                         {rdb::Value::Int(obj_id), rdb::Value::Int(attr_id),
                          ToDbValue(request.value)},
                         &rs);
  });
}

Status LrcStore::ModifyAttribute(const AttrValueRequest& request) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t attr_id = 0;
    AttrType type;
    Status st = LookupAttribute(*conn, request.attr_name, request.object, &attr_id, &type);
    if (!st.ok()) return st;
    if (type != request.value.type) {
      return Status::InvalidArgument("attribute value type mismatch");
    }
    int64_t obj_id = 0;
    st = LookupId(*conn, ObjectTable(request.object), request.object_name, &obj_id);
    if (!st.ok()) return st;
    if (obj_id == 0) return Status::NotFound("object not registered: " + request.object_name);
    ResultSet rs;
    st = conn->Execute(std::string("UPDATE ") + AttrTable(type) +
                           " SET value = ? WHERE obj_id = ? AND attr_id = ?",
                       {ToDbValue(request.value), rdb::Value::Int(obj_id),
                        rdb::Value::Int(attr_id)},
                       &rs);
    if (!st.ok()) return st;
    if (rs.affected == 0) {
      return Status::NotFound("attribute not set on " + request.object_name);
    }
    return Status::Ok();
  });
}

Status LrcStore::DeleteAttribute(const std::string& object_name,
                                 const std::string& attr_name, AttrObject object) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t attr_id = 0;
    AttrType type;
    Status st = LookupAttribute(*conn, attr_name, object, &attr_id, &type);
    if (!st.ok()) return st;
    int64_t obj_id = 0;
    st = LookupId(*conn, ObjectTable(object), object_name, &obj_id);
    if (!st.ok()) return st;
    if (obj_id == 0) return Status::NotFound("object not registered: " + object_name);
    ResultSet rs;
    st = conn->Execute(std::string("DELETE FROM ") + AttrTable(type) +
                           " WHERE obj_id = ? AND attr_id = ?",
                       {rdb::Value::Int(obj_id), rdb::Value::Int(attr_id)}, &rs);
    if (!st.ok()) return st;
    if (rs.affected == 0) return Status::NotFound("attribute not set on " + object_name);
    return Status::Ok();
  });
}

Status LrcStore::QueryObjectAttributes(const std::string& object_name, AttrObject object,
                                       std::vector<Attribute>* out) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  int64_t obj_id = 0;
  s = LookupId(*conn, ObjectTable(object), object_name, &obj_id);
  if (!s.ok()) return s;
  if (obj_id == 0) return Status::NotFound("object not registered: " + object_name);

  out->clear();
  static constexpr AttrType kTypes[] = {AttrType::kString, AttrType::kInt,
                                        AttrType::kFloat, AttrType::kDate};
  for (AttrType type : kTypes) {
    ResultSet rs;
    std::string table = AttrTable(type);
    s = conn->Execute("SELECT t_attribute.name, " + table + ".value FROM " + table +
                          " JOIN t_attribute ON " + table +
                          ".attr_id = t_attribute.id WHERE " + table +
                          ".obj_id = ? AND t_attribute.objtype = ?",
                      {rdb::Value::Int(obj_id),
                       rdb::Value::Int(static_cast<int64_t>(object))},
                      &rs);
    if (!s.ok()) return s;
    for (const rdb::Row& row : rs.rows) {
      Attribute a;
      a.name = row[0].AsString();
      a.object = object;
      a.value = FromDbValue(type, row[1]);
      out->push_back(std::move(a));
    }
  }
  return Status::Ok();
}

Status LrcStore::SearchAttribute(const AttrSearchRequest& request,
                                 std::vector<std::pair<std::string, AttrValue>>* out) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  int64_t attr_id = 0;
  AttrType type;
  s = LookupAttribute(*conn, request.attr_name, request.object, &attr_id, &type);
  if (!s.ok()) return s;
  if (type != request.value.type) {
    return Status::InvalidArgument("attribute value type mismatch in search");
  }
  const std::string table = AttrTable(type);
  const std::string obj_table = ObjectTable(request.object);
  ResultSet rs;
  s = conn->Execute("SELECT " + obj_table + ".name, " + table + ".value FROM " + table +
                        " JOIN " + obj_table + " ON " + table + ".obj_id = " +
                        obj_table + ".id WHERE " + table + ".attr_id = ? AND " +
                        table + ".value " + CmpSql(request.cmp) + " ?",
                    {rdb::Value::Int(attr_id), ToDbValue(request.value)}, &rs);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(rs.size());
  for (const rdb::Row& row : rs.rows) {
    out->emplace_back(row[0].AsString(), FromDbValue(type, row[1]));
  }
  return Status::Ok();
}

// --- RLI update-list management ---

Status LrcStore::AddRli(const std::string& rli_url, int64_t flags) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute("INSERT INTO t_rli (flags, name) VALUES (?, ?)",
                    {rdb::Value::Int(flags), rdb::Value::String(rli_url)}, &rs);
  return s;
}

Status LrcStore::RemoveRli(const std::string& rli_url) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t rli_id = 0;
    Status st = LookupId(*conn, "t_rli", rli_url, &rli_id);
    if (!st.ok()) return st;
    if (rli_id == 0) return Status::NotFound("RLI not in update list: " + rli_url);
    ResultSet rs;
    st = conn->Execute("DELETE FROM t_rlipartition WHERE rli_id = ?",
                       {rdb::Value::Int(rli_id)}, &rs);
    if (!st.ok()) return st;
    return conn->Execute("DELETE FROM t_rli WHERE id = ?", {rdb::Value::Int(rli_id)}, &rs);
  });
}

Status LrcStore::ListRlis(std::vector<std::string>* out) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute("SELECT name FROM t_rli", &rs);
  if (!s.ok()) return s;
  out->clear();
  for (const rdb::Row& row : rs.rows) out->push_back(row[0].AsString());
  return Status::Ok();
}

Status LrcStore::AddPartition(const std::string& rli_url, const std::string& pattern) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t rli_id = 0;
    Status st = LookupId(*conn, "t_rli", rli_url, &rli_id);
    if (!st.ok()) return st;
    if (rli_id == 0) return Status::NotFound("RLI not in update list: " + rli_url);
    ResultSet rs;
    return conn->Execute("INSERT INTO t_rlipartition (rli_id, pattern) VALUES (?, ?)",
                         {rdb::Value::Int(rli_id), rdb::Value::String(pattern)}, &rs);
  });
}

Status LrcStore::ListPartitions(
    std::vector<std::pair<std::string, std::string>>* out) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute(
      "SELECT t_rli.name, t_rlipartition.pattern FROM t_rlipartition"
      " JOIN t_rli ON t_rlipartition.rli_id = t_rli.id",
      &rs);
  if (!s.ok()) return s;
  out->clear();
  for (const rdb::Row& row : rs.rows) {
    out->emplace_back(row[0].AsString(), row[1].AsString());
  }
  return Status::Ok();
}

Status LrcStore::BulkLoad(uint64_t count,
                          const std::function<Mapping(uint64_t)>& make,
                          std::size_t batch_size) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  if (batch_size == 0) batch_size = 1;
  uint64_t loaded = 0;
  while (loaded < count) {
    const uint64_t end = std::min<uint64_t>(count, loaded + batch_size);
    s = WithTxn(*conn, [&]() -> Status {
      ResultSet rs;
      for (uint64_t i = loaded; i < end; ++i) {
        Mapping m = make(i);
        Status st = conn->Execute("INSERT INTO t_lfn (name, ref) VALUES (?, 1)",
                                  {rdb::Value::String(m.logical)}, &rs);
        if (!st.ok()) return st;
        const int64_t lfn_id = rs.last_insert_id;
        st = conn->Execute("INSERT INTO t_pfn (name, ref) VALUES (?, 1)",
                           {rdb::Value::String(m.target)}, &rs);
        if (!st.ok()) return st;
        const int64_t pfn_id = rs.last_insert_id;
        st = conn->Execute("INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                           {rdb::Value::Int(lfn_id), rdb::Value::Int(pfn_id)}, &rs);
        if (!st.ok()) return st;
      }
      return Status::Ok();
    });
    if (!s.ok()) return s;
    loaded = end;
  }
  return Status::Ok();
}

Status LrcStore::ForEachLogicalName(
    std::size_t chunk_size,
    const std::function<void(const std::vector<std::string>&)>& fn) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute("SELECT name FROM t_lfn", &rs);
  if (!s.ok()) return s;
  std::vector<std::string> chunk;
  chunk.reserve(chunk_size);
  for (const rdb::Row& row : rs.rows) {
    chunk.push_back(row[0].AsString());
    if (chunk.size() >= chunk_size) {
      fn(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) fn(chunk);
  return Status::Ok();
}

uint64_t LrcStore::LogicalNameCount() const {
  dbapi::ConnectionPool::Lease conn;
  if (!pool_.Acquire(&conn).ok()) return 0;
  ResultSet rs;
  if (!conn->Execute("SELECT COUNT(*) FROM t_lfn", &rs).ok()) return 0;
  return static_cast<uint64_t>(rs.at(0, 0).AsInt());
}

uint64_t LrcStore::MappingCount() const {
  dbapi::ConnectionPool::Lease conn;
  if (!pool_.Acquire(&conn).ok()) return 0;
  ResultSet rs;
  if (!conn->Execute("SELECT COUNT(*) FROM t_map", &rs).ok()) return 0;
  return static_cast<uint64_t>(rs.at(0, 0).AsInt());
}

}  // namespace rls
