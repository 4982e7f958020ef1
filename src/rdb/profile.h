// Back-end behaviour profiles.
//
// The paper evaluates the RLS over two relational back ends whose
// *differences* drive several results:
//   * MySQL 4.0.14 — deletes reclaim space immediately; the important
//     knob is whether transactions flush durably to disk (Fig. 4/5:
//     ~84 adds/s flush-enabled vs ~700/s flush-disabled).
//   * PostgreSQL 7.2.4 — deletes leave dead tuples in heap and indexes
//     until a VACUUM; add rates decay under churn and recover after
//     vacuum (Fig. 8 saw-tooth).
//
// BackendProfile captures exactly those mechanisms so the same engine
// reproduces both behaviours.
#pragma once

#include <chrono>
#include <string>

#include "rdb/index.h"

namespace rdb {

enum class BackendKind { kMySQL, kPostgreSQL };

struct BackendProfile {
  BackendKind kind = BackendKind::kMySQL;

  /// When true, every commit is written through to the WAL file and
  /// synced (plus `durable_flush_penalty`). The paper calls this the
  /// database "flush"; disabling it trades durability for speed
  /// ("loose consistency ... at some risk of database corruption", §5.1).
  bool durable_flush = false;

  /// Modeled seek+sync latency of the 2004-era disk in the paper's
  /// testbed, charged per durable commit on top of the real fsync. The
  /// container's NVMe would otherwise make "flush enabled" nearly free
  /// and hide the effect the paper measures.
  std::chrono::microseconds durable_flush_penalty{8000};

  /// How long the WAL file lives. Every commit is a checksummed frame
  /// either way. True: persistent — kept on close, checkpointed at the
  /// recycle wrap, and replayed by Database::Recover(). False
  /// (default): scratch — truncated on open, rewound past the
  /// threshold and unlinked on close; the fig benches' flush curves run
  /// on it.
  bool wal_recovery = false;

  /// Overrides the WAL recycle threshold; 0 = the Wal default (256 MB).
  /// Tests use tiny values to drive the checkpoint-wrap boundary.
  uint64_t wal_recycle_bytes = 0;

  /// Picks the WAL batch cap. True: group commit — concurrent
  /// committers share one write + one fdatasync + ONE modeled
  /// `durable_flush_penalty` per batch of up to `wal_group_max_commits`,
  /// so durable throughput scales with client count. False (default): a
  /// cap of one — every commit pays its own serialized sync, the 2004
  /// cost model behind the paper's flat Fig. 4 flush-enabled curve.
  bool wal_group_commit = false;

  /// Group-commit batch cap; 0 = the Wal default (64 commits).
  std::size_t wal_group_max_commits = 0;

  /// >0 = a group-commit leader lingers up to this long for the batch
  /// to fill before syncing (low-load latency floor).
  std::chrono::microseconds wal_group_max_wait{0};

  IndexDeleteMode index_delete_mode() const {
    return kind == BackendKind::kPostgreSQL ? IndexDeleteMode::kTombstone
                                            : IndexDeleteMode::kErase;
  }

  /// PostgreSQL keeps deleted rows as dead tuples until VACUUM.
  bool heap_dead_tuples() const { return kind == BackendKind::kPostgreSQL; }

  std::string Name() const {
    return kind == BackendKind::kPostgreSQL ? "postgresql" : "mysql";
  }

  static BackendProfile MySQL() {
    BackendProfile p;
    p.kind = BackendKind::kMySQL;
    return p;
  }

  static BackendProfile PostgreSQL() {
    BackendProfile p;
    p.kind = BackendKind::kPostgreSQL;
    return p;
  }
};

}  // namespace rdb
