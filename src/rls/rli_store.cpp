#include "rls/rli_store.h"

#include <algorithm>
#include <bit>

#include "rls/lrc_store.h"  // GlobToLike

namespace rls {

using dbapi::Connection;
using rlscommon::Status;
using sql::ResultSet;

namespace {

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

/// Finds or creates a name row in t_lfn / t_lrc; returns its id.
Status GetOrCreateId(Connection& conn, const char* table, const std::string& name,
                     int64_t* id) {
  ResultSet rs;
  Status s = conn.Execute(std::string("SELECT id FROM ") + table + " WHERE name = ?",
                          {rdb::Value::String(name)}, &rs);
  if (!s.ok()) return s;
  if (!rs.empty()) {
    *id = rs.at(0, 0).AsInt();
    return Status::Ok();
  }
  s = conn.Execute(std::string("INSERT INTO ") + table + " (name, ref) VALUES (?, 0)",
                   {rdb::Value::String(name)}, &rs);
  if (!s.ok()) return s;
  *id = rs.last_insert_id;
  return Status::Ok();
}

/// Refreshes or inserts one {lfn_id, lrc_id} association.
Status UpsertOne(Connection& conn, int64_t lfn_id, int64_t lrc_id, int64_t now_micros) {
  ResultSet rs;
  Status s = conn.Execute(
      "UPDATE t_map SET updatetime = ? WHERE lfn_id = ? AND lrc_id = ?",
      {rdb::Value::Timestamp(now_micros), rdb::Value::Int(lfn_id),
       rdb::Value::Int(lrc_id)},
      &rs);
  if (!s.ok()) return s;
  if (rs.affected > 0) return Status::Ok();
  return conn.Execute(
      "INSERT INTO t_map (lfn_id, lrc_id, updatetime) VALUES (?, ?, ?)",
      {rdb::Value::Int(lfn_id), rdb::Value::Int(lrc_id),
       rdb::Value::Timestamp(now_micros)},
      &rs);
}

/// Deletes the lfn row if no associations reference it anymore.
Status CollectLfnIfOrphan(Connection& conn, int64_t lfn_id) {
  ResultSet rs;
  Status s = conn.Execute("SELECT COUNT(*) FROM t_map WHERE lfn_id = ?",
                          {rdb::Value::Int(lfn_id)}, &rs);
  if (!s.ok()) return s;
  if (rs.at(0, 0).AsInt() > 0) return Status::Ok();
  return conn.Execute("DELETE FROM t_lfn WHERE id = ?", {rdb::Value::Int(lfn_id)}, &rs);
}

}  // namespace

Status RliRelationalStore::Create(dbapi::Environment& env, const std::string& dsn,
                                  std::unique_ptr<RliRelationalStore>* out) {
  std::unique_ptr<RliRelationalStore> store(new RliRelationalStore(env, dsn));
  Status s = store->InitSchema();
  if (!s.ok()) return s;
  *out = std::move(store);
  return Status::Ok();
}

Status RliRelationalStore::InitSchema() {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  // Fig. 3 of the paper, RLI database (right side).
  static constexpr const char* kSchema[] = {
      "CREATE TABLE t_lfn (id INT AUTO_INCREMENT PRIMARY KEY,"
      " name VARCHAR(250) NOT NULL, ref INT)",
      "CREATE UNIQUE INDEX idx_rli_lfn_name ON t_lfn (name)",
      "CREATE TABLE t_lrc (id INT AUTO_INCREMENT PRIMARY KEY,"
      " name VARCHAR(250) NOT NULL, ref INT)",
      "CREATE UNIQUE INDEX idx_rli_lrc_name ON t_lrc (name)",
      "CREATE TABLE t_map (lfn_id INT NOT NULL, lrc_id INT NOT NULL,"
      " updatetime TIMESTAMP)",
      "CREATE INDEX idx_rli_map_lfn ON t_map (lfn_id)",
      "CREATE INDEX idx_rli_map_lrc ON t_map (lrc_id)",
      "CREATE ORDERED INDEX idx_rli_map_time ON t_map (updatetime)",
  };
  for (const char* ddl : kSchema) {
    ResultSet rs;
    s = conn->Execute(ddl, &rs);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status RliRelationalStore::Upsert(const std::string& lfn, const std::string& lrc_url,
                                  int64_t now_micros) {
  return UpsertBatch({lfn}, lrc_url, now_micros);
}

Status RliRelationalStore::UpsertBatch(const std::vector<std::string>& lfns,
                                       const std::string& lrc_url, int64_t now_micros) {
  std::shared_lock<std::shared_mutex> writers(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    int64_t lrc_id = 0;
    Status st = GetOrCreateId(*conn, "t_lrc", lrc_url, &lrc_id);
    if (!st.ok()) return st;
    for (const std::string& lfn : lfns) {
      int64_t lfn_id = 0;
      st = GetOrCreateId(*conn, "t_lfn", lfn, &lfn_id);
      if (!st.ok()) return st;
      st = UpsertOne(*conn, lfn_id, lrc_id, now_micros);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  });
}

Status RliRelationalStore::Remove(const std::string& lfn, const std::string& lrc_url) {
  std::unique_lock<std::shared_mutex> writers(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  return WithTxn(*conn, [&]() -> Status {
    ResultSet rs;
    Status st = conn->Execute("SELECT id FROM t_lfn WHERE name = ?",
                              {rdb::Value::String(lfn)}, &rs);
    if (!st.ok()) return st;
    if (rs.empty()) return Status::Ok();  // already gone — removal is idempotent
    const int64_t lfn_id = rs.at(0, 0).AsInt();
    st = conn->Execute("SELECT id FROM t_lrc WHERE name = ?",
                       {rdb::Value::String(lrc_url)}, &rs);
    if (!st.ok()) return st;
    if (rs.empty()) return Status::Ok();
    const int64_t lrc_id = rs.at(0, 0).AsInt();
    st = conn->Execute("DELETE FROM t_map WHERE lfn_id = ? AND lrc_id = ?",
                       {rdb::Value::Int(lfn_id), rdb::Value::Int(lrc_id)}, &rs);
    if (!st.ok()) return st;
    return CollectLfnIfOrphan(*conn, lfn_id);
  });
}

Status RliRelationalStore::Query(const std::string& lfn,
                                 std::vector<std::string>* lrcs) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute(
      "SELECT t_lrc.name FROM t_lfn"
      " JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " JOIN t_lrc ON t_map.lrc_id = t_lrc.id"
      " WHERE t_lfn.name = ?",
      {rdb::Value::String(lfn)}, &rs);
  if (!s.ok()) return s;
  if (rs.empty()) return Status::NotFound("no LRC holds mappings for: " + lfn);
  lrcs->clear();
  lrcs->reserve(rs.size());
  for (const rdb::Row& row : rs.rows) lrcs->push_back(row[0].AsString());
  return Status::Ok();
}

Status RliRelationalStore::WildcardQuery(const std::string& pattern, uint32_t limit,
                                         std::vector<Mapping>* out) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  std::string sql =
      "SELECT t_lfn.name, t_lrc.name FROM t_lfn"
      " JOIN t_map ON t_lfn.id = t_map.lfn_id"
      " JOIN t_lrc ON t_map.lrc_id = t_lrc.id"
      " WHERE t_lfn.name LIKE ?";
  if (limit > 0) sql += " LIMIT " + std::to_string(limit);
  ResultSet rs;
  s = conn->Execute(sql, {rdb::Value::String(GlobToLike(pattern))}, &rs);
  if (!s.ok()) return s;
  out->clear();
  for (const rdb::Row& row : rs.rows) {
    out->push_back(Mapping{row[0].AsString(), row[1].AsString()});
  }
  return Status::Ok();
}

Status RliRelationalStore::ListLrcs(std::vector<std::string>* out) const {
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  ResultSet rs;
  s = conn->Execute("SELECT name FROM t_lrc", &rs);
  if (!s.ok()) return s;
  out->clear();
  for (const rdb::Row& row : rs.rows) out->push_back(row[0].AsString());
  return Status::Ok();
}

Status RliRelationalStore::ExpireOlderThan(int64_t cutoff_micros, uint64_t* removed) {
  std::unique_lock<std::shared_mutex> writers(write_mu_);
  dbapi::ConnectionPool::Lease conn;
  Status s = pool_.Acquire(&conn);
  if (!s.ok()) return s;
  if (removed) *removed = 0;
  return WithTxn(*conn, [&]() -> Status {
    // Find affected logical names first, then delete and collect orphans.
    ResultSet rs;
    Status st = conn->Execute("SELECT lfn_id FROM t_map WHERE updatetime <= ?",
                              {rdb::Value::Timestamp(cutoff_micros)}, &rs);
    if (!st.ok()) return st;
    std::vector<int64_t> lfn_ids;
    lfn_ids.reserve(rs.size());
    for (const rdb::Row& row : rs.rows) lfn_ids.push_back(row[0].AsInt());
    std::sort(lfn_ids.begin(), lfn_ids.end());
    lfn_ids.erase(std::unique(lfn_ids.begin(), lfn_ids.end()), lfn_ids.end());

    st = conn->Execute("DELETE FROM t_map WHERE updatetime <= ?",
                       {rdb::Value::Timestamp(cutoff_micros)}, &rs);
    if (!st.ok()) return st;
    if (removed) *removed = rs.affected;

    for (int64_t lfn_id : lfn_ids) {
      st = CollectLfnIfOrphan(*conn, lfn_id);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  });
}

bool RliRelationalStore::OldestStamp(int64_t* micros) const {
  dbapi::ConnectionPool::Lease conn;
  if (!pool_.Acquire(&conn).ok()) return false;
  ResultSet rs;
  // Walks the ordered index on updatetime: one entry, not a scan.
  if (!conn->Execute("SELECT updatetime FROM t_map ORDER BY updatetime LIMIT 1", &rs).ok() ||
      rs.empty()) {
    return false;
  }
  *micros = rs.at(0, 0).AsInt();
  return true;
}

uint64_t RliRelationalStore::AssociationCount() const {
  dbapi::ConnectionPool::Lease conn;
  if (!pool_.Acquire(&conn).ok()) return 0;
  ResultSet rs;
  if (!conn->Execute("SELECT COUNT(*) FROM t_map", &rs).ok()) return 0;
  return static_cast<uint64_t>(rs.at(0, 0).AsInt());
}

uint64_t RliRelationalStore::LogicalNameCount() const {
  dbapi::ConnectionPool::Lease conn;
  if (!pool_.Acquire(&conn).ok()) return 0;
  ResultSet rs;
  if (!conn->Execute("SELECT COUNT(*) FROM t_lfn", &rs).ok()) return 0;
  return static_cast<uint64_t>(rs.at(0, 0).AsInt());
}

namespace {

/// Filters whose first probed bits a query reads before it reads any of
/// their others: one bit each of a uint64_t.
constexpr std::size_t kProbeBatch = 64;

}  // namespace

void RliBloomStore::StoreFilter(const std::string& lrc_url, bloom::BloomFilter filter) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), lrc_url,
      [](const Entry& entry, const std::string& url) { return entry.url < url; });
  if (it != entries_.end() && it->url == lrc_url) {
    it->filter = std::move(filter);
    it->received = clock_->Now();
  } else {
    entries_.insert(it, Entry{lrc_url, std::move(filter), clock_->Now()});
  }
}

Status RliBloomStore::Query(const std::string& lfn,
                            std::vector<std::string>* lrcs) const {
  // Hash once, probe every filter (paper: query cost grows with the
  // number of Bloom filters at the RLI, Fig. 10).
  const bloom::HashPair hash = bloom::HashKey(lfn);
  lrcs->clear();
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (std::size_t begin = 0; begin < entries_.size(); begin += kProbeBatch) {
    const std::size_t end = std::min(begin + kProbeBatch, entries_.size());
    // Read the first probed bit of every filter of the batch before any
    // filter's other bits, so that their cache misses overlap; only the
    // filters whose first bit is set go on to the others. A lone filter
    // has no misses to overlap and goes straight to its own test.
    uint64_t maybe = end - begin == 1;
    for (std::size_t i = begin; i < end && end - begin > 1; ++i) {
      const bloom::BloomFilter& filter = entries_[i].filter;
      const bloom::BitPositions at(hash, filter.num_bits(), filter.num_hashes());
      maybe |= uint64_t{at.size() > 0 && filter.TestBit(at[0])} << (i - begin);
    }
    for (; maybe != 0; maybe &= maybe - 1) {
      const Entry& entry = entries_[begin + std::countr_zero(maybe)];
      if (entry.filter.ContainsHashed(hash)) lrcs->push_back(entry.url);
    }
  }
  if (lrcs->empty()) return Status::NotFound("no LRC claims: " + lfn);
  return Status::Ok();
}

Status RliBloomStore::ListLrcs(std::vector<std::string>* out) const {
  out->clear();
  std::shared_lock<std::shared_mutex> lock(mu_);
  out->reserve(entries_.size());
  for (const Entry& entry : entries_) out->push_back(entry.url);
  return Status::Ok();
}

uint64_t RliBloomStore::ExpireOlderThan(rlscommon::Duration max_age) {
  const rlscommon::TimePoint cutoff = clock_->Now() - max_age;
  std::unique_lock<std::shared_mutex> lock(mu_);
  return std::erase_if(entries_,
                       [cutoff](const Entry& entry) { return entry.received <= cutoff; });
}

bool RliBloomStore::OldestStamp(rlscommon::TimePoint* received) const {
  using rlscommon::TimePoint;
  std::shared_lock<std::shared_mutex> lock(mu_);
  *received = TimePoint::max();
  for (const Entry& entry : entries_) *received = std::min(*received, entry.received);
  return !entries_.empty();
}

std::size_t RliBloomStore::filter_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

uint64_t RliBloomStore::TotalFilterBits() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t total = 0;
  for (const Entry& entry : entries_) total += entry.filter.num_bits();
  return total;
}

}  // namespace rls
