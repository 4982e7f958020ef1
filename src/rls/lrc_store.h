// Local Replica Catalog store: the relational back end of an LRC,
// implementing the exact table structure of the paper's Fig. 3 over the
// dbapi/sql/rdb stack.
//
// Thread-safe: every operation leases a connection from an internal pool
// and runs its statements in a transaction.
//
// Semantics follow the Globus RLS client API:
//   * CreateMapping registers a NEW logical name with its first target;
//     it fails with AlreadyExists if the name is registered.
//   * AddMapping adds another target to an EXISTING logical name.
//   * DeleteMapping removes one {logical, target} association; when a
//     name's last mapping goes away the name itself is deleted.
// A change observer is notified when a logical name appears/disappears —
// this feeds the soft-state machinery (incremental updates, Bloom filter
// maintenance).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"
#include "dbapi/pool.h"
#include "rls/protocol.h"
#include "rls/types.h"

namespace rls {

class LrcStore {
 public:
  /// Creates the Fig. 3 schema on the database behind `dsn` (which must
  /// already be registered in `env`).
  static rlscommon::Status Create(dbapi::Environment& env, const std::string& dsn,
                                  std::unique_ptr<LrcStore>* out);

  // --- mapping management ---
  rlscommon::Status CreateMapping(const std::string& logical, const std::string& target);
  rlscommon::Status AddMapping(const std::string& logical, const std::string& target);
  rlscommon::Status DeleteMapping(const std::string& logical, const std::string& target);

  // --- batched mapping management ---
  /// Applies the whole batch in ONE multi-row WAL transaction: one log
  /// append and one (possibly shared) sync instead of a commit per item —
  /// the paper's bulk-operation path (§3.3, Fig. 11). A failed item rolls
  /// back to its savepoint and is reported in `result->failures`; the
  /// surviving items commit together. A non-OK return means the batch's
  /// commit itself failed and nothing is durable.
  rlscommon::Status CreateMappings(const std::vector<Mapping>& mappings,
                                   BulkStatusResponse* result);
  rlscommon::Status AddMappings(const std::vector<Mapping>& mappings,
                                BulkStatusResponse* result);
  rlscommon::Status DeleteMappings(const std::vector<Mapping>& mappings,
                                   BulkStatusResponse* result);

  // --- queries ---
  /// `offset`/`limit` page large result sets (the original client's
  /// offset/reslimit arguments); limit 0 = unlimited.
  rlscommon::Status QueryLogical(const std::string& logical,
                                 std::vector<std::string>* targets,
                                 uint32_t offset = 0, uint32_t limit = 0) const;
  rlscommon::Status QueryTarget(const std::string& target,
                                std::vector<std::string>* logicals,
                                uint32_t offset = 0, uint32_t limit = 0) const;
  /// Glob pattern ('*'/'?') over logical names.
  rlscommon::Status WildcardQuery(const std::string& pattern, uint32_t limit,
                                  std::vector<Mapping>* out,
                                  uint32_t offset = 0) const;
  bool LogicalExists(const std::string& logical) const;

  // --- attribute management ---
  rlscommon::Status DefineAttribute(const std::string& name, AttrObject object,
                                    AttrType type);
  rlscommon::Status UndefineAttribute(const std::string& name, AttrObject object);
  rlscommon::Status AddAttribute(const AttrValueRequest& request);
  rlscommon::Status ModifyAttribute(const AttrValueRequest& request);
  rlscommon::Status DeleteAttribute(const std::string& object_name,
                                    const std::string& attr_name, AttrObject object);
  rlscommon::Status QueryObjectAttributes(const std::string& object_name,
                                          AttrObject object,
                                          std::vector<Attribute>* out) const;
  /// Objects whose attribute `attr_name` compares `cmp` against `value`.
  rlscommon::Status SearchAttribute(const AttrSearchRequest& request,
                                    std::vector<std::pair<std::string, AttrValue>>* out) const;

  // --- RLI update-list management (t_rli / t_rlipartition) ---
  rlscommon::Status AddRli(const std::string& rli_url, int64_t flags = 0);
  rlscommon::Status RemoveRli(const std::string& rli_url);
  rlscommon::Status ListRlis(std::vector<std::string>* out) const;
  rlscommon::Status AddPartition(const std::string& rli_url, const std::string& pattern);
  rlscommon::Status ListPartitions(
      std::vector<std::pair<std::string, std::string>>* out) const;

  /// Fast initialization path: loads `count` mappings produced by `make`
  /// in batched transactions, bypassing existence checks and the change
  /// observer. This is the paper's "large numbers of mappings are loaded
  /// into an LRC server at once, for example, during initialization of a
  /// new server" case (§3.3) — a full soft-state update should follow.
  /// Names must be fresh (duplicates fail the batch).
  rlscommon::Status BulkLoad(uint64_t count,
                             const std::function<Mapping(uint64_t)>& make,
                             std::size_t batch_size = 1000);

  // --- soft-state support ---
  /// Streams every registered logical name in chunks of `chunk_size`.
  rlscommon::Status ForEachLogicalName(
      std::size_t chunk_size,
      const std::function<void(const std::vector<std::string>&)>& fn) const;

  uint64_t LogicalNameCount() const;
  uint64_t MappingCount() const;

  /// Observer invoked (outside transactions) when a logical name gains
  /// its first mapping (`added`=true) or loses its last (`added`=false).
  /// Set once before concurrent use.
  void SetChangeObserver(std::function<void(const std::string&, bool added)> observer) {
    observer_ = std::move(observer);
  }

  dbapi::ConnectionPool& pool() const { return pool_; }

  /// The database behind the pool's DSN (recovery stats, WAL metrics).
  rdb::Database* database() const { return db_; }

 private:
  LrcStore(dbapi::Environment& env, const std::string& dsn) : pool_(env, dsn) {}

  rlscommon::Status InitSchema();

  /// Looks up id of a name row; 0 if absent.
  static rlscommon::Status LookupId(dbapi::Connection& conn, const char* table,
                                    const std::string& name, int64_t* id);

  /// Looks up an attribute definition by (name, objtype).
  static rlscommon::Status LookupAttribute(dbapi::Connection& conn,
                                           const std::string& name, AttrObject object,
                                           int64_t* attr_id, AttrType* type);

  /// Removes all attribute values attached to a deleted object row.
  static rlscommon::Status DeleteObjectAttributes(dbapi::Connection& conn,
                                                  int64_t obj_id, AttrObject object);

  /// Shared implementation of Create/Add.
  rlscommon::Status InsertMapping(const std::string& logical, const std::string& target,
                                  bool create_new);

  /// Transaction bodies shared by the single and batched write paths.
  /// Both run inside an already-open transaction on `conn` and report
  /// soft-state events through the out-flags instead of firing the
  /// change observer themselves.
  static rlscommon::Status InsertMappingTx(dbapi::Connection& conn,
                                           const std::string& logical,
                                           const std::string& target,
                                           bool create_new, bool* lfn_added);
  static rlscommon::Status DeleteMappingTx(dbapi::Connection& conn,
                                           const std::string& logical,
                                           const std::string& target,
                                           bool* lfn_removed);

  enum class MappingOp { kCreate, kAdd, kDelete };
  rlscommon::Status MutateMappings(const std::vector<Mapping>& mappings,
                                   MappingOp op, BulkStatusResponse* result);

  mutable dbapi::ConnectionPool pool_;
  rdb::Database* db_ = nullptr;  // set by Create after recovery
  /// Serializes mutating transactions. The SQL engine locks per
  /// statement, so multi-statement read-modify-write sequences (shared
  /// target-name reference counts) need store-level serialization —
  /// faithful to MySQL 4.0's MyISAM table locks, which serialized the
  /// 2004 RLS's writers the same way. Queries never take this.
  std::mutex write_mu_;
  std::function<void(const std::string&, bool)> observer_;
};

/// Converts a glob pattern ('*'/'?') to a SQL LIKE pattern ('%'/'_').
std::string GlobToLike(std::string_view glob);

}  // namespace rls
