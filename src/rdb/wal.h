// Write-ahead log.
//
// Transactions buffer their records (in sql::Session) and hand the
// concatenated payload to Commit. When durable flush is enabled the
// bytes are written and fsynced — plus the profile's modeled 2004-disk
// penalty — before Commit returns. With flush disabled the bytes are
// written without syncing: the OS flushes them eventually, which is the
// "loose consistency ... at some risk of database corruption" mode the
// paper recommends enabling for RLS deployments (§5.1).
//
// Every commit is one self-describing frame:
//
//   u32 crc32c   over everything after this field
//   u64 lsn      monotonic, 1-based
//   u8  type     1 = transaction, 2 = checkpoint
//   u32 len      payload length
//   payload      logical record stream (rdb/wal_record.h)
//
// WalOptions::recovery decides only how long the file lives:
//
//   * Persistent (recovery = true): kept on close and replayed by
//     Recover(), which verifies checksums, truncates the first
//     torn/corrupt frame and everything after it, and hands committed
//     payloads to the caller in LSN order. A batch that pushes the file
//     past the recycle threshold marks a checkpoint pending;
//     CheckpointIfPending then snapshots the tables into a sidecar
//     (path + ".ckpt": tmp + fsync + rename + directory fsync),
//     truncates the log and writes a checkpoint frame carrying the
//     covered LSN, so replay cost stays bounded.
//
//   * Scratch (recovery = false): truncated on open, rewound to offset
//     0 by the batch after the one that crosses the threshold, and
//     unlinked on close. The fig benches need this lifetime: real
//     fdatasync costs and no files left behind.
//
// One commit path, leader/follower group commit: committers enqueue
// their frames under the group lock (reserving LSNs in queue order) and
// park on a condition variable. The first parked committer becomes the
// leader: it drains up to group_max_commits of the queue, issues ONE
// contiguous append for the whole batch, pays ONE fdatasync and ONE
// modeled-disk penalty (the max of the batch members'), then wakes the
// group with a shared status. A cap of one is the paper's per-commit
// flush: every durable commit pays its own sync and full penalty, so
// the flush-enabled add rate stays flat as threads are added (Fig. 4).
// Larger caps let durable throughput scale with the number of
// concurrent committers. `group_max_wait` > 0 lets a leader linger for
// the batch to fill at low load. The split CommitBegin/CommitFinish API
// lets a caller reserve its LSN while holding its own ordering lock and
// park for the sync after releasing it.
//
// Failure policy: a write error or an injected short write is a typed
// non-retryable DATA_LOSS error; the partially written batch is
// truncated away so the log stays a clean prefix of committed frames
// (an injected power cut leaves the torn bytes for recovery to find
// and poisons the log). A failed fdatasync poisons the log
// permanently — after fsync fails, the kernel may already have dropped
// the dirty pages, so retrying the sync would silently report
// durability that does not exist (the "fsyncgate" semantics); every
// later Commit fails fast with DATA_LOSS, as does every member of the
// batch whose sync failed. An unopenable path poisons the log the same
// way, so nothing is acknowledged that no file holds.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "rdb/storage_fault.h"

namespace rdb {

/// WAL frame types.
inline constexpr uint8_t kWalFrameTxn = 1;
inline constexpr uint8_t kWalFrameCheckpoint = 2;

/// Frame header bytes: crc(4) + lsn(8) + type(1) + len(4).
inline constexpr std::size_t kWalFrameHeaderBytes = 17;

/// One parked committer (owned by its CommitTicket; queued by pointer).
/// Defined in wal.cpp.
struct WalGroupWaiter;

/// Construction-time options beyond the path.
struct WalOptions {
  uint64_t recycle_bytes = 256ull << 20;
  /// True = persistent log (kept on close, replayed, checkpointed);
  /// false = scratch log (truncated on open, rewound, unlinked on close).
  bool recovery = false;
  /// Optional fault injector consulted before log writes and syncs.
  StorageFaultInjector* fault = nullptr;
  /// Most commits a leader drains into one batch; 1 = the paper's
  /// per-commit flush (one sync and one full penalty per commit).
  std::size_t group_max_commits = 64;
  /// >0 = a leader lingers up to this long waiting for the batch to
  /// fill before syncing (low-load latency floor for bigger groups).
  std::chrono::microseconds group_max_wait{0};
};

/// Metric hooks fired by the Wal. Plain std::function so rdb keeps no
/// dependency on the obs registry; unset members are skipped.
struct WalObserver {
  /// One call per batch written: member count + batch bytes.
  std::function<void(uint64_t frames, uint64_t bytes)> group_commit;
  /// One call per parked committer as it unparks: wall time spent
  /// waiting for the leader's write+sync, plus the committer's ambient
  /// trace id (0 = none) for exemplars.
  std::function<void(uint64_t wait_us, uint64_t trace_id)> sync_wait;
};

/// What Recover() found in the log.
struct WalRecoverResult {
  uint64_t frames_applied = 0;    // txn frames handed to the applier
  uint64_t last_lsn = 0;          // highest LSN seen (commits continue after)
  uint64_t torn_tail_bytes = 0;   // bytes truncated at the torn/corrupt tail
  uint64_t checksum_failures = 0; // frames rejected by CRC (0 or 1 per scan)
  uint64_t checkpoint_lsn = 0;    // LSN of a checkpoint frame, 0 = none
};

class Wal {
 public:
  /// Default recycle threshold: the log rewinds (scratch) or
  /// checkpoints (persistent) rather than growing without bound.
  static constexpr uint64_t kRecycleBytes = 256ull << 20;

  /// A commit split into its enqueue and wait halves. Begin reserves
  /// the LSN and enqueues; Finish parks for the batch result. The
  /// destructor waits out a still-pending commit so the queued waiter
  /// can never dangle.
  class CommitTicket {
   public:
    CommitTicket();  // out of line: WalGroupWaiter is incomplete here
    ~CommitTicket();
    CommitTicket(const CommitTicket&) = delete;
    CommitTicket& operator=(const CommitTicket&) = delete;

    /// True between a successful CommitBegin and CommitFinish.
    bool pending() const { return pending_; }

   private:
    friend class Wal;
    Wal* wal_ = nullptr;
    std::unique_ptr<WalGroupWaiter> waiter_;
    rlscommon::Status immediate_;
    bool pending_ = false;
  };

  /// `path` empty = account bytes but keep no file (in-memory database).
  /// A path that cannot be opened poisons the log.
  explicit Wal(std::string path, WalOptions options = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Writes one transaction's records. When `durable`, the write is
  /// synced and the modeled disk `penalty` is charged, once per batch,
  /// before returning. Thread-safe. Fails with DATA_LOSS on a storage
  /// error; permanently after a failed sync (see the failure policy
  /// above).
  rlscommon::Status Commit(std::string_view payload, bool durable,
                           std::chrono::microseconds penalty);

  /// First half of Commit: reserves the commit's LSN and enqueues the
  /// frame without blocking on any disk I/O (the caller may still hold
  /// its own ordering lock). The returned status is the enqueue verdict
  /// — the commit's final status comes from CommitFinish. `ticket` must
  /// outlive the matching CommitFinish.
  rlscommon::Status CommitBegin(std::string_view payload, bool durable,
                                std::chrono::microseconds penalty,
                                CommitTicket* ticket);

  /// Second half of Commit: parks until a leader (possibly this thread)
  /// has written + synced the ticket's batch, and returns the commit's
  /// final status. Safe to call after a failed CommitBegin (returns the
  /// same failure). Idempotent.
  rlscommon::Status CommitFinish(CommitTicket* ticket);

  /// Persistent-log scan: verifies every frame's checksum, truncates the
  /// log at the first torn or corrupt frame, and calls `apply` for each
  /// committed transaction payload with LSN > `base_lsn` (the snapshot
  /// LSN), in order. Leaves the write position at the end of the last
  /// valid frame so new commits continue the LSN sequence. Idempotent:
  /// a second scan over the repaired log yields the same frames.
  rlscommon::Status Recover(
      uint64_t base_lsn,
      const std::function<rlscommon::Status(uint64_t lsn,
                                            std::string_view payload)>& apply,
      WalRecoverResult* result);

  /// Reads the checkpoint sidecar (path + ".ckpt") if one exists.
  /// `*present` = false (and OK) when there is none; DATA_LOSS when the
  /// sidecar exists but fails its checksum (it is then ignored).
  rlscommon::Status ReadCheckpointSidecar(std::string* payload, uint64_t* lsn,
                                          bool* present) const;

  /// Installs the snapshot producer a checkpoint invokes. Returns the
  /// serialized table snapshot; `snapshot_rows` receives the row count
  /// for metrics. Called under the commit lock with no table locks
  /// held, so the writer may take them.
  void SetCheckpointWriter(
      std::function<std::string(uint64_t* snapshot_rows)> writer) {
    checkpoint_writer_ = std::move(writer);
  }

  /// Installs (or clears, with default-constructed hooks) the metric
  /// observer. Call while no commits are in flight.
  void SetObserver(WalObserver observer);

  /// The one place a persistent log checkpoints. The batch that crosses
  /// the recycle threshold only marks the checkpoint pending (a leader
  /// must not take table locks while committers are parked behind it);
  /// the engine calls this from a context where no transaction is
  /// between applying its mutations and reserving its LSN
  /// (Database::MaybeCheckpoint holds the txn gate exclusively). The
  /// checkpoint LSN is then the highest *reserved* LSN, so queued
  /// frames that land after the wrap replay as no-ops. A failed sidecar
  /// write or sync aborts the wrap with DATA_LOSS and leaves the log
  /// untouched; the next batch past the threshold retries.
  rlscommon::Status CheckpointIfPending();
  bool checkpoint_pending() const {
    return checkpoint_pending_.load(std::memory_order_acquire);
  }

  uint64_t bytes_logged() const { return bytes_logged_.load(std::memory_order_relaxed); }
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t checkpoints() const { return checkpoints_.load(std::memory_order_relaxed); }
  uint64_t torn_tail_bytes() const { return torn_tail_bytes_.load(std::memory_order_relaxed); }
  uint64_t checksum_failures() const { return checksum_failures_.load(std::memory_order_relaxed); }
  /// Batches written by leaders (one write+sync each).
  uint64_t group_commits() const { return group_commits_.load(std::memory_order_relaxed); }
  /// Total modeled-disk penalty charged, in microseconds: once per sync,
  /// the max of the batch members' penalties — so with a cap of one,
  /// every durable commit's full penalty (the cost-model invariant the
  /// penalty unit tests pin).
  uint64_t penalty_us_charged() const { return penalty_us_charged_.load(std::memory_order_relaxed); }
  const std::string& path() const { return path_; }
  /// Batch cap; 1 = per-commit flush, >1 = group commit.
  std::size_t group_max_commits() const { return options_.group_max_commits; }

  /// True once a storage failure made the log unusable (unopenable
  /// path, failed sync, or an unrepairable write error). All further
  /// commits fail DATA_LOSS.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Current write offset in the file (post-wrap position). Bounded by
  /// recycle_bytes + the largest single batch.
  uint64_t file_bytes() const;

  /// Highest LSN assigned to a frame on disk.
  uint64_t last_lsn() const;

  uint64_t recycle_bytes() const { return options_.recycle_bytes; }

 private:
  /// Leader loop: drains batches until `own` is done. Called with
  /// group_mu_ held (released around the batch I/O).
  void LeadLocked(std::unique_lock<std::mutex>& lk, WalGroupWaiter* own);
  /// Writes one drained batch: single contiguous append, one sync, one
  /// penalty. Returns the shared status for every batch member.
  rlscommon::Status WriteBatch(const std::vector<WalGroupWaiter*>& batch);
  /// The one append routine: writes `bytes` at file_bytes_ under the
  /// storage-fault policy (injected error, short write with truncate
  /// repair, simulated crash, real write error). Lock held.
  rlscommon::Status AppendLocked(std::string_view bytes);
  /// fdatasync of the log with fail-stop semantics (lock held).
  rlscommon::Status SyncLocked();
  /// fsync (or fdatasync) behind the fault injector's sync verdict.
  /// Returns 0 or an errno.
  int SyncFile(int fd, bool data_only) const;
  /// Snapshot + durable sidecar + truncate + checkpoint frame (lock
  /// held). `ckpt_lsn` is the highest reserved LSN.
  rlscommon::Status CheckpointLocked(uint64_t ckpt_lsn);

  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  mutable std::mutex commit_mu_;
  std::atomic<uint64_t> bytes_logged_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> torn_tail_bytes_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> penalty_us_charged_{0};
  std::atomic<bool> poisoned_{false};
  std::atomic<bool> checkpoint_pending_{false};
  uint64_t file_bytes_ = 0;  // guarded by commit_mu_
  uint64_t last_lsn_ = 0;    // guarded by commit_mu_
  std::function<std::string(uint64_t*)> checkpoint_writer_;

  // Commit-queue state. Lock order: group_mu_ and commit_mu_ are never
  // held together (the leader releases group_mu_ around the batch I/O).
  mutable std::mutex group_mu_;
  std::condition_variable group_cv_;
  std::deque<WalGroupWaiter*> queue_;  // guarded by group_mu_
  bool leader_active_ = false;         // guarded by group_mu_
  /// Highest LSN handed out at enqueue; >= last_lsn_ (frames not yet
  /// written). Failed batches leave gaps, which replay tolerates.
  std::atomic<uint64_t> lsn_reserve_{0};
  mutable std::mutex observer_mu_;
  WalObserver observer_;  // guarded by observer_mu_
};

}  // namespace rdb
