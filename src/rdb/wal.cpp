#include "rdb/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/trace_context.h"

namespace rdb {
namespace {

using rlscommon::Status;

constexpr uint32_t kSidecarMagic = 0x504B4352u;  // "RCKP" little-endian

/// Byte cap on a batch (the first frame always fits).
constexpr std::size_t kGroupMaxBytes = 1u << 20;

void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t GetU32(const char* p) { uint32_t v; std::memcpy(&v, p, 4); return v; }
uint64_t GetU64(const char* p) { uint64_t v; std::memcpy(&v, p, 8); return v; }

/// Builds one frame: crc | lsn | type | len | payload. The CRC covers
/// everything after the CRC field.
std::string BuildFrame(uint8_t type, uint64_t lsn, std::string_view payload) {
  std::string frame(kWalFrameHeaderBytes, '\0');
  PutU64(&frame[4], lsn);
  frame[12] = static_cast<char>(type);
  PutU32(&frame[13], static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  const uint32_t crc = rlscommon::Crc32c(frame.data() + 4, frame.size() - 4);
  PutU32(&frame[0], crc);
  return frame;
}

/// Full positional write with EINTR/partial-write handling. Returns 0 on
/// success, errno on failure; `*written` reports bytes that landed.
int PWriteAll(int fd, const char* p, std::size_t n, uint64_t offset,
              std::size_t* written) {
  *written = 0;
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
    offset += static_cast<uint64_t>(w);
    *written += static_cast<std::size_t>(w);
  }
  return 0;
}

Status PoisonedError() {
  return Status::DataLoss(
      "WAL is poisoned after an earlier open/sync/write failure; restart "
      "and recover");
}

}  // namespace

/// One parked committer. The frame (header + payload with the reserved
/// LSN) is fully built at enqueue time so the leader's write is a plain
/// concatenation. `done`/`status` are guarded by the Wal's group_mu_.
struct WalGroupWaiter {
  std::string frame;
  bool durable = false;
  std::chrono::microseconds penalty{0};
  uint64_t lsn = 0;  // 0 = no frame (no file, or nothing to write)
  bool done = false;
  rlscommon::Status status;
};

Wal::CommitTicket::CommitTicket() = default;

Wal::CommitTicket::~CommitTicket() {
  // A queued waiter is referenced by the leader until it is marked
  // done; never let it die pending.
  if (pending_ && wal_) (void)wal_->CommitFinish(this);
}

Wal::Wal(std::string path, WalOptions options)
    : path_(std::move(path)), options_(options) {
  if (path_.empty()) return;
  // A scratch log starts empty; a persistent one must keep whatever a
  // previous incarnation left behind.
  const int flags = O_CREAT | O_RDWR | (options_.recovery ? 0 : O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    // Fail stop: a log that holds nothing must not acknowledge commits.
    RLS_ERROR("wal") << "cannot open WAL file " << path_ << ": "
                     << std::strerror(errno) << "; every commit will fail";
    poisoned_.store(true, std::memory_order_release);
    return;
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end > 0) file_bytes_ = static_cast<uint64_t>(end);
}

Wal::~Wal() {
  if (fd_ >= 0) {
    ::close(fd_);
    // A scratch log is a cost model, not state: remove it. A persistent
    // log (and its checkpoint sidecar) must survive for replay.
    if (!options_.recovery) ::unlink(path_.c_str());
  }
}

void Wal::SetObserver(WalObserver observer) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  observer_ = std::move(observer);
}

Status Wal::AppendLocked(std::string_view bytes) {
  const uint64_t offset = file_bytes_;
  std::size_t allowed = bytes.size();
  int fault_error = 0;
  if (options_.fault) {
    const auto verdict = options_.fault->OnWrite(offset, bytes.size());
    using Kind = StorageFaultInjector::WriteVerdict::Kind;
    if (verdict.kind == Kind::kError) {
      // Nothing reached the disk; the log is still consistent.
      return Status::DataLoss(std::string("WAL write: ") +
                              std::strerror(verdict.error));
    }
    if (verdict.kind == Kind::kShort) {
      allowed = verdict.allowed;
      fault_error = verdict.error;
    }
  }
  std::size_t written = 0;
  const int err = PWriteAll(fd_, bytes.data(), allowed, offset, &written);
  if (err == 0 && fault_error == 0) {
    file_bytes_ = offset + written;
    return Status::Ok();
  }
  if (options_.fault && options_.fault->crashed()) {
    // Simulated power cut: the torn bytes stay on disk for recovery to
    // find, and this Wal is dead.
    poisoned_.store(true, std::memory_order_release);
    file_bytes_ = offset + written;
    return Status::DataLoss("WAL write: simulated crash after " +
                            std::to_string(written) + " bytes");
  }
  // Disk error mid-write with the process alive: truncate the torn bytes
  // away so the log stays a clean prefix of committed frames. A failed
  // batch's reserved LSNs become a gap, which replay tolerates (it only
  // requires ascending LSNs, not dense ones).
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    poisoned_.store(true, std::memory_order_release);
    return Status::DataLoss(std::string("WAL write failed; repair failed: ") +
                            std::strerror(errno));
  }
  return Status::DataLoss(std::string("WAL write: ") +
                          std::strerror(err != 0 ? err : fault_error));
}

int Wal::SyncFile(int fd, bool data_only) const {
  if (options_.fault) {
    if (const int err = options_.fault->OnSync()) return err;
  }
  const int rc = data_only ? ::fdatasync(fd) : ::fsync(fd);
  return rc == 0 ? 0 : errno;
}

Status Wal::SyncLocked() {
  if (fd_ >= 0) {
    if (const int err = SyncFile(fd_, /*data_only=*/true)) {
      // fsyncgate: a failed sync may have dropped the dirty pages.
      // Retrying would claim durability that does not exist, so the log
      // fails stop.
      poisoned_.store(true, std::memory_order_release);
      return Status::DataLoss(std::string("WAL fsync: ") + std::strerror(err));
    }
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Wal::CheckpointLocked(uint64_t ckpt_lsn) {
  // 1. Snapshot the committed state (the writer takes the table locks;
  //    the commit path holds none).
  uint64_t snapshot_rows = 0;
  const std::string snapshot =
      checkpoint_writer_ ? checkpoint_writer_(&snapshot_rows) : std::string();

  // 2. Persist the snapshot atomically and durably: tmp + fsync +
  //    rename + fsync of the directory. Until the directory sync lands,
  //    a power cut may undo the rename, so the log is not truncated
  //    before it: the disk always holds a sidecar/log pair that
  //    recovers, because replay skips frames with LSN <= the sidecar's.
  const std::string ckpt_path = path_ + ".ckpt";
  const std::string tmp_path = ckpt_path + ".tmp";
  std::string blob(20, '\0');
  PutU32(&blob[0], kSidecarMagic);
  PutU64(&blob[8], ckpt_lsn);
  PutU32(&blob[16], static_cast<uint32_t>(snapshot.size()));
  blob.append(snapshot);
  PutU32(&blob[4], rlscommon::Crc32c(blob.data() + 8, blob.size() - 8));
  int err = 0;
  const int cfd = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (cfd < 0) {
    err = errno;
  } else {
    std::size_t written = 0;
    err = PWriteAll(cfd, blob.data(), blob.size(), 0, &written);
    if (err == 0) err = SyncFile(cfd, /*data_only=*/false);
    ::close(cfd);
  }
  if (err == 0 && ::rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    err = errno;
  }
  if (err == 0) {
    const std::size_t slash = path_.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, std::max<std::size_t>(slash, 1));
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
      err = errno;
    } else {
      err = SyncFile(dfd, /*data_only=*/false);
      ::close(dfd);
    }
  }
  if (err != 0) {
    ::unlink(tmp_path.c_str());
    // The wrap is aborted but the log is intact; the next batch past the
    // threshold retries the checkpoint.
    return Status::DataLoss(std::string("WAL checkpoint: ") +
                            std::strerror(err));
  }

  // 3. Recycle the log and stamp the covered LSN so file_bytes() and
  //    replay agree across the boundary.
  if (::ftruncate(fd_, 0) != 0) {
    poisoned_.store(true, std::memory_order_release);
    return Status::DataLoss(std::string("WAL checkpoint truncate: ") +
                            std::strerror(errno));
  }
  file_bytes_ = 0;
  Status s = AppendLocked(BuildFrame(kWalFrameCheckpoint, ckpt_lsn, {}));
  if (!s.ok()) return s;
  s = SyncLocked();
  if (!s.ok()) return s;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  RLS_INFO("wal") << "checkpoint at lsn " << ckpt_lsn << " (" << snapshot_rows
                  << " rows, " << snapshot.size() << " snapshot bytes) " << path_;
  return Status::Ok();
}

Status Wal::CheckpointIfPending() {
  if (!checkpoint_pending_.load(std::memory_order_acquire)) return Status::Ok();
  // The caller (Database::MaybeCheckpoint) holds the txn gate
  // exclusively: every mutation applied to the tables belongs to a
  // transaction whose LSN is already reserved, so a snapshot stamped
  // with the highest reserved LSN skips exactly those frames at replay
  // — including ones still queued behind a leader.
  std::lock_guard<std::mutex> lock(commit_mu_);
  checkpoint_pending_.store(false, std::memory_order_release);
  if (poisoned_.load(std::memory_order_acquire) ||
      file_bytes_ <= options_.recycle_bytes) {
    return Status::Ok();
  }
  const uint64_t ckpt_lsn =
      std::max(last_lsn_, lsn_reserve_.load(std::memory_order_relaxed));
  return CheckpointLocked(ckpt_lsn);
}

Status Wal::Commit(std::string_view payload, bool durable,
                   std::chrono::microseconds penalty) {
  CommitTicket ticket;
  Status s = CommitBegin(payload, durable, penalty, &ticket);
  if (!s.ok()) return s;
  return CommitFinish(&ticket);
}

Status Wal::CommitBegin(std::string_view payload, bool durable,
                        std::chrono::microseconds penalty,
                        CommitTicket* ticket) {
  ticket->wal_ = this;
  ticket->pending_ = false;
  commits_.fetch_add(1, std::memory_order_relaxed);
  bytes_logged_.fetch_add(payload.size(), std::memory_order_relaxed);
  if (poisoned_.load(std::memory_order_acquire)) {
    ticket->immediate_ = PoisonedError();
    return ticket->immediate_;
  }
  const bool writes = fd_ >= 0 && !payload.empty();
  if (!writes && !durable) {
    // Nothing to write and nothing to sync: the commit is complete.
    ticket->immediate_ = Status::Ok();
    return ticket->immediate_;
  }
  auto waiter = std::make_unique<WalGroupWaiter>();
  waiter->durable = durable;
  waiter->penalty = penalty;
  {
    std::lock_guard<std::mutex> lock(group_mu_);
    if (writes) {
      // LSNs are reserved in enqueue order under group_mu_, so the
      // FIFO queue keeps the on-disk frames LSN-sorted.
      waiter->lsn = lsn_reserve_.fetch_add(1, std::memory_order_relaxed) + 1;
      waiter->frame = BuildFrame(kWalFrameTxn, waiter->lsn, payload);
    }
    queue_.push_back(waiter.get());
  }
  // Only a lingering leader waits for enqueues.
  if (options_.group_max_wait.count() > 0) group_cv_.notify_all();
  ticket->waiter_ = std::move(waiter);
  ticket->pending_ = true;
  return Status::Ok();
}

Status Wal::CommitFinish(CommitTicket* ticket) {
  if (!ticket->pending_) return ticket->immediate_;
  WalGroupWaiter* own = ticket->waiter_.get();
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(group_mu_);
    while (!own->done) {
      if (!leader_active_) {
        leader_active_ = true;
        LeadLocked(lock, own);
        leader_active_ = false;
        group_cv_.notify_all();  // hand leadership to a parked follower
      } else {
        group_cv_.wait(lock);
      }
    }
  }
  ticket->pending_ = false;
  const uint64_t wait_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  WalObserver observer;
  {
    std::lock_guard<std::mutex> lock(observer_mu_);
    observer = observer_;
  }
  if (observer.sync_wait) {
    observer.sync_wait(wait_us, rlscommon::CurrentTrace().trace_id);
  }
  // Stage stamp on the ambient request span: everything since the
  // db_txn stamp was spent queued behind + inside the batch sync.
  if (own->durable) rlscommon::StampHop("wal_sync");
  return own->status;
}

void Wal::LeadLocked(std::unique_lock<std::mutex>& lock, WalGroupWaiter* own) {
  while (!own->done) {
    if (options_.group_max_wait.count() > 0 &&
        queue_.size() < options_.group_max_commits) {
      // Low-load linger: trade a bounded latency floor for a fuller
      // batch. New enqueues notify, so a full batch cuts this short.
      group_cv_.wait_for(lock, options_.group_max_wait, [this] {
        return queue_.size() >= options_.group_max_commits;
      });
    }
    std::vector<WalGroupWaiter*> batch;
    std::size_t bytes = 0;
    while (!queue_.empty() && batch.size() < options_.group_max_commits) {
      WalGroupWaiter* next = queue_.front();
      if (!batch.empty() && bytes + next->frame.size() > kGroupMaxBytes) break;
      queue_.pop_front();
      batch.push_back(next);
      bytes += next->frame.size();
    }
    if (batch.empty()) {
      // Unreachable while own is queued, but never spin on a surprise.
      group_cv_.wait(lock);
      continue;
    }
    lock.unlock();
    const Status s = WriteBatch(batch);
    lock.lock();
    for (WalGroupWaiter* member : batch) {
      member->status = s;
      member->done = true;
    }
    group_cv_.notify_all();
  }
}

Status Wal::WriteBatch(const std::vector<WalGroupWaiter*>& batch) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (poisoned_.load(std::memory_order_acquire)) return PoisonedError();
  std::string buf;
  uint64_t max_lsn = 0;
  bool durable = false;
  std::chrono::microseconds penalty{0};
  for (const WalGroupWaiter* member : batch) {
    buf += member->frame;
    max_lsn = std::max(max_lsn, member->lsn);
    durable = durable || member->durable;
    penalty = std::max(penalty, member->penalty);
  }
  if (!buf.empty()) {
    // A scratch log wraps by rewinding: the batch after the one that
    // crossed the threshold overwrites from offset 0.
    if (!options_.recovery && file_bytes_ > options_.recycle_bytes) {
      file_bytes_ = 0;
    }
    // One contiguous append for the whole batch; the fault injector
    // sees it as a single write, so an injected cut can land inside any
    // member frame (recovery then replays the whole-frame prefix).
    Status s = AppendLocked(buf);
    if (!s.ok()) return s;
    last_lsn_ = std::max(last_lsn_, max_lsn);
    if (options_.recovery && file_bytes_ > options_.recycle_bytes) {
      // Defer the checkpoint: the snapshot writer takes table locks,
      // which must not happen while committers are parked behind this
      // leader (see CheckpointIfPending).
      checkpoint_pending_.store(true, std::memory_order_release);
    }
  }
  if (durable) {
    Status s = SyncLocked();
    if (!s.ok()) return s;
    // ONE modeled-disk penalty per sync: the max of the members'
    // penalties, as the slowest modeled device bounds the batch.
    if (penalty.count() > 0) {
      std::this_thread::sleep_for(penalty);
      penalty_us_charged_.fetch_add(static_cast<uint64_t>(penalty.count()),
                                    std::memory_order_relaxed);
    }
  }
  group_commits_.fetch_add(1, std::memory_order_relaxed);
  WalObserver observer;
  {
    std::lock_guard<std::mutex> obs_lock(observer_mu_);
    observer = observer_;
  }
  if (observer.group_commit) {
    observer.group_commit(static_cast<uint64_t>(batch.size()),
                          static_cast<uint64_t>(buf.size()));
  }
  return Status::Ok();
}

Status Wal::Recover(
    uint64_t base_lsn,
    const std::function<Status(uint64_t lsn, std::string_view payload)>& apply,
    WalRecoverResult* result) {
  *result = WalRecoverResult{};
  if (!options_.recovery) {
    return Status::Unsupported("WAL recovery requires the recovery profile");
  }
  if (poisoned_.load(std::memory_order_acquire)) return PoisonedError();
  std::lock_guard<std::mutex> lock(commit_mu_);
  result->last_lsn = base_lsn;
  if (fd_ < 0) return Status::Ok();

  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    return Status::DataLoss(std::string("WAL recover: fstat: ") +
                            std::strerror(errno));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint64_t offset = 0;
  uint64_t last_good = 0;
  char header[kWalFrameHeaderBytes];
  std::vector<char> payload;

  while (offset + kWalFrameHeaderBytes <= size) {
    ssize_t r = ::pread(fd_, header, kWalFrameHeaderBytes,
                        static_cast<off_t>(offset));
    if (r != static_cast<ssize_t>(kWalFrameHeaderBytes)) break;  // torn tail
    const uint32_t crc = GetU32(header);
    const uint64_t lsn = GetU64(header + 4);
    const uint8_t type = static_cast<uint8_t>(header[12]);
    const uint32_t len = GetU32(header + 13);
    if (offset + kWalFrameHeaderBytes + len > size) break;  // torn tail
    payload.resize(len);
    if (len > 0) {
      r = ::pread(fd_, payload.data(), len,
                  static_cast<off_t>(offset + kWalFrameHeaderBytes));
      if (r != static_cast<ssize_t>(len)) break;  // torn tail
    }
    uint32_t actual = rlscommon::Crc32cExtend(0, header + 4,
                                              kWalFrameHeaderBytes - 4);
    actual = rlscommon::Crc32cExtend(actual, payload.data(), len);
    if (actual != crc) {
      // Corrupt frame: count it and treat it (and everything after) as
      // the torn tail. A half-written final frame lands here too when
      // its length field survived but its payload did not.
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      result->checksum_failures++;
      break;
    }
    if (type == kWalFrameCheckpoint) {
      result->checkpoint_lsn = lsn;
      if (lsn > result->last_lsn) result->last_lsn = lsn;
    } else if (type == kWalFrameTxn) {
      if (lsn > result->last_lsn) result->last_lsn = lsn;
      if (lsn > base_lsn && apply) {
        Status s = apply(lsn, len > 0 ? std::string_view(payload.data(), len)
                                      : std::string_view());
        if (!s.ok()) return s;
        result->frames_applied++;
      }
    } else {
      // Unknown frame type: corruption that happened to pass the CRC of
      // garbage is not possible (the CRC covers the type), so this is a
      // version skew; stop replay here.
      break;
    }
    offset += kWalFrameHeaderBytes + len;
    last_good = offset;
  }

  const uint64_t torn = size - last_good;
  if (torn > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(last_good)) != 0) {
      return Status::DataLoss(std::string("WAL recover: truncate: ") +
                              std::strerror(errno));
    }
    torn_tail_bytes_.fetch_add(torn, std::memory_order_relaxed);
    result->torn_tail_bytes = torn;
  }
  file_bytes_ = last_good;
  last_lsn_ = result->last_lsn;
  if (lsn_reserve_.load(std::memory_order_relaxed) < last_lsn_) {
    lsn_reserve_.store(last_lsn_, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Wal::ReadCheckpointSidecar(std::string* payload, uint64_t* lsn,
                                  bool* present) const {
  *present = false;
  *lsn = 0;
  payload->clear();
  if (path_.empty()) return Status::Ok();
  const std::string ckpt_path = path_ + ".ckpt";
  int cfd = ::open(ckpt_path.c_str(), O_RDONLY);
  if (cfd < 0) return Status::Ok();  // no sidecar: nothing checkpointed yet
  struct stat st {};
  std::string blob;
  if (::fstat(cfd, &st) == 0 && st.st_size >= 20) {
    blob.resize(static_cast<std::size_t>(st.st_size));
    ssize_t r = ::pread(cfd, blob.data(), blob.size(), 0);
    if (r != static_cast<ssize_t>(blob.size())) blob.clear();
  }
  ::close(cfd);
  if (blob.size() < 20 || GetU32(blob.data()) != kSidecarMagic) {
    return Status::DataLoss("WAL checkpoint sidecar " + ckpt_path +
                            " is malformed; ignoring it");
  }
  const uint32_t crc = GetU32(blob.data() + 4);
  const uint64_t ckpt_lsn = GetU64(blob.data() + 8);
  const uint32_t len = GetU32(blob.data() + 16);
  if (blob.size() != 20u + len ||
      rlscommon::Crc32c(blob.data() + 8, blob.size() - 8) != crc) {
    return Status::DataLoss("WAL checkpoint sidecar " + ckpt_path +
                            " failed its checksum; ignoring it");
  }
  *present = true;
  *lsn = ckpt_lsn;
  payload->assign(blob, 20, len);
  return Status::Ok();
}

uint64_t Wal::file_bytes() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return file_bytes_;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return last_lsn_;
}

}  // namespace rdb
