// WAL tests.
//
// Scratch logs: recycle-wrap boundary behavior (the log rewinds to
// offset 0 once a commit pushes the file past the recycle threshold),
// driven with a tiny threshold instead of the production 256 MB.
//
// Persistent logs: framed commits, torn-tail truncation, checksum
// rejection, checkpoint-at-wrap, and the fail-stop storage failure
// policy, driven through the seeded StorageFaultInjector.
//
// Both lifetimes write the same frames through the same commit path;
// a batch cap of one is the paper's per-commit flush.
#include "rdb/wal.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rdb/database.h"
#include "rdb/storage_fault.h"

namespace rdb {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/rls_" + name + "_" +
         std::to_string(::getpid()) + ".log";
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// Persistent logs survive close by design; tests clean up.
void RemoveWalFiles(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink((path + ".ckpt").c_str());
  ::unlink((path + ".ckpt.tmp").c_str());
}

WalOptions ScratchOptions(uint64_t recycle_bytes,
                          StorageFaultInjector* fault = nullptr) {
  WalOptions options;
  options.recycle_bytes = recycle_bytes;
  options.fault = fault;
  return options;
}

WalOptions RecoveryOptions(uint64_t recycle_bytes,
                           StorageFaultInjector* fault = nullptr) {
  WalOptions options = ScratchOptions(recycle_bytes, fault);
  options.recovery = true;
  return options;
}

/// On-disk size of one frame carrying `payload_bytes`.
constexpr uint64_t FrameBytes(uint64_t payload_bytes) {
  return kWalFrameHeaderBytes + payload_bytes;
}

/// Runs a recovery scan collecting (lsn, payload) pairs.
std::vector<std::pair<uint64_t, std::string>> Replay(Wal* wal,
                                                     uint64_t base_lsn,
                                                     WalRecoverResult* result) {
  std::vector<std::pair<uint64_t, std::string>> frames;
  EXPECT_TRUE(wal->Recover(base_lsn,
                           [&](uint64_t lsn, std::string_view payload) {
                             frames.emplace_back(lsn, std::string(payload));
                             return rlscommon::Status::Ok();
                           },
                           result)
                  .ok());
  return frames;
}

TEST(WalRecycleTest, WrapsPastThreshold) {
  const std::string path = TestPath("wal_wrap");
  const std::string record(10, 'x');
  constexpr uint64_t kFrame = FrameBytes(10);  // 27
  Wal wal(path, ScratchOptions(/*recycle_bytes=*/6 * kFrame + 4));
  // 6 commits = 6 frames: still below the threshold, no wrap yet.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  }
  EXPECT_EQ(wal.file_bytes(), 6 * kFrame);
  // 7th commit crosses the threshold; the *next* commit observes
  // file_bytes_ > threshold and rewinds to offset 0 before writing.
  ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  EXPECT_EQ(wal.file_bytes(), 7 * kFrame);
  ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  EXPECT_EQ(wal.file_bytes(), kFrame);  // wrapped: first frame after rewind
  // Accounting is monotonic even though the file position wrapped, and
  // counts payload bytes, not frame bytes.
  EXPECT_EQ(wal.commits(), 8u);
  EXPECT_EQ(wal.bytes_logged(), 80u);
}

TEST(WalRecycleTest, FileSizeStaysBounded) {
  const std::string path = TestPath("wal_bounded");
  const uint64_t threshold = 256;
  const std::string record(64, 'y');
  Wal wal(path, ScratchOptions(threshold));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  }
  // 6400 payload bytes logged, but the file never grows past threshold
  // + one frame (the commit that crosses the threshold before wrapping).
  EXPECT_EQ(wal.bytes_logged(), 6400u);
  EXPECT_LE(FileSize(path), threshold + FrameBytes(record.size()));
  EXPECT_LE(wal.file_bytes(), threshold + FrameBytes(record.size()));
}

TEST(WalRecycleTest, ExactBoundaryDoesNotWrapEarly) {
  // Landing exactly on the threshold is not "past" it: the wrap
  // condition is strictly greater-than.
  const std::string path = TestPath("wal_exact");
  const std::string record(20, 'z');
  constexpr uint64_t kFrame = FrameBytes(20);  // 37
  Wal wal(path, ScratchOptions(/*recycle_bytes=*/2 * kFrame));
  ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  EXPECT_EQ(wal.file_bytes(), 2 * kFrame);
  ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  EXPECT_EQ(wal.file_bytes(), 3 * kFrame);  // == threshold: no wrap yet
  ASSERT_TRUE(wal.Commit(record, false, {}).ok());
  EXPECT_EQ(wal.file_bytes(), kFrame);  // > threshold: wrapped
}

TEST(WalRecycleTest, InMemoryWalIgnoresThreshold) {
  // Path-less WAL keeps accounting without a file; the wrap logic must
  // not disturb the counters.
  Wal wal("", ScratchOptions(/*recycle_bytes=*/8));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal.Commit("abcdef", false, {}).ok());
  }
  EXPECT_EQ(wal.bytes_logged(), 60u);
  EXPECT_EQ(wal.file_bytes(), 0u);
}

TEST(WalRecycleTest, ScratchLogTruncatesOnOpenWritesFramesAndUnlinks) {
  const std::string path = TestPath("wal_scratch_frames");
  {  // Leftovers from an earlier process must not survive the open.
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, "stale", 5), 5);
    ::close(fd);
  }
  {
    Wal wal(path, ScratchOptions(1 << 20));
    EXPECT_EQ(FileSize(path), 0u);
    uint64_t expected = 0;
    for (const std::string& payload :
         {std::string("a"), std::string("bravo"), std::string(100, 'c')}) {
      ASSERT_TRUE(wal.Commit(payload, true, {}).ok());
      expected += FrameBytes(payload.size());
      EXPECT_EQ(FileSize(path), expected);
    }
    EXPECT_EQ(wal.last_lsn(), 3u);
    // The first frame is a checksummed transaction frame with LSN 1.
    char header[kWalFrameHeaderBytes];
    int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pread(fd, header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    ::close(fd);
    uint64_t lsn = 0;
    uint32_t len = 0;
    std::memcpy(&lsn, header + 4, 8);
    std::memcpy(&len, header + 13, 4);
    EXPECT_EQ(lsn, 1u);
    EXPECT_EQ(header[12], static_cast<char>(kWalFrameTxn));
    EXPECT_EQ(len, 1u);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // unlinked on close
}

TEST(WalRecycleTest, DefaultThresholdIsProductionSized) {
  Wal wal("");
  EXPECT_EQ(wal.recycle_bytes(), Wal::kRecycleBytes);
  EXPECT_EQ(Wal::kRecycleBytes, 256ull << 20);
}

// --------------------------------------------------------------------
// Persistent logs
// --------------------------------------------------------------------

TEST(WalRecoveryTest, FramedCommitsReplayAfterReopen) {
  const std::string path = TestPath("wal_rec_roundtrip");
  RemoveWalFiles(path);
  {
    Wal wal(path, RecoveryOptions(1 << 20));
    ASSERT_TRUE(wal.Commit("alpha", true, {}).ok());
    ASSERT_TRUE(wal.Commit("bravo", true, {}).ok());
    ASSERT_TRUE(wal.Commit("charlie", true, {}).ok());
    EXPECT_EQ(wal.last_lsn(), 3u);
  }  // close; a recovery log persists
  Wal wal(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&wal, 0, &result);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], (std::pair<uint64_t, std::string>{1, "alpha"}));
  EXPECT_EQ(frames[1], (std::pair<uint64_t, std::string>{2, "bravo"}));
  EXPECT_EQ(frames[2], (std::pair<uint64_t, std::string>{3, "charlie"}));
  EXPECT_EQ(result.last_lsn, 3u);
  EXPECT_EQ(result.torn_tail_bytes, 0u);
  EXPECT_EQ(result.checksum_failures, 0u);
  // New commits continue the LSN sequence after the replayed prefix.
  ASSERT_TRUE(wal.Commit("delta", true, {}).ok());
  EXPECT_EQ(wal.last_lsn(), 4u);
  RemoveWalFiles(path);
}

TEST(WalRecoveryTest, TornTailIsTruncatedAndReplayIsIdempotent) {
  const std::string path = TestPath("wal_rec_torn");
  RemoveWalFiles(path);
  const std::string payload(16, 'p');  // frame = 17 + 16 = 33 bytes
  {
    Wal wal(path, RecoveryOptions(1 << 20));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.Commit(payload, true, {}).ok());
    }
  }
  ASSERT_EQ(FileSize(path), 99u);
  // Cut into the third frame's payload: a torn final write.
  ASSERT_EQ(::truncate(path.c_str(), 80), 0);
  Wal wal(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  auto frames = Replay(&wal, 0, &result);
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_EQ(result.last_lsn, 2u);
  EXPECT_EQ(result.torn_tail_bytes, 14u);  // 80 - 66
  EXPECT_EQ(FileSize(path), 66u);          // repaired to the good prefix
  // Second scan over the repaired log: same frames, no new torn tail.
  WalRecoverResult again;
  frames = Replay(&wal, 0, &again);
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_EQ(again.torn_tail_bytes, 0u);
  RemoveWalFiles(path);
}

TEST(WalRecoveryTest, ChecksumFailureStopsReplay) {
  const std::string path = TestPath("wal_rec_crc");
  RemoveWalFiles(path);
  const std::string payload(16, 'q');
  {
    Wal wal(path, RecoveryOptions(1 << 20));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.Commit(payload, true, {}).ok());
    }
  }
  {  // Flip one payload byte inside the second frame.
    int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const char bad = 'X';
    ASSERT_EQ(::pwrite(fd, &bad, 1, 33 + 17 + 4), 1);
    ::close(fd);
  }
  Wal wal(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&wal, 0, &result);
  ASSERT_EQ(frames.size(), 1u);  // frame 1 good; 2 corrupt; 3 unreachable
  EXPECT_EQ(frames[0].first, 1u);
  EXPECT_EQ(result.checksum_failures, 1u);
  EXPECT_EQ(result.torn_tail_bytes, 66u);  // frames 2 and 3 dropped
  EXPECT_EQ(wal.checksum_failures(), 1u);
  EXPECT_EQ(result.last_lsn, 1u);
  RemoveWalFiles(path);
}

TEST(WalRecoveryTest, CheckpointAtWrapCarriesPreWrapLsn) {
  const std::string path = TestPath("wal_rec_wrap");
  RemoveWalFiles(path);
  const std::string payload(16, 'w');  // frame = 33 bytes
  {
    Wal wal(path, RecoveryOptions(/*recycle_bytes=*/64));
    wal.SetCheckpointWriter([](uint64_t* rows) {
      *rows = 7;
      return std::string("SNAPSHOT");
    });
    ASSERT_TRUE(wal.Commit(payload, true, {}).ok());  // file: 33
    EXPECT_FALSE(wal.checkpoint_pending());
    ASSERT_TRUE(wal.Commit(payload, true, {}).ok());  // file: 66 > 64
    EXPECT_TRUE(wal.checkpoint_pending());
    // Where the engine would (Database::MaybeCheckpoint): sidecar at
    // LSN 2, log truncated, checkpoint frame. Then LSN 3 appends.
    ASSERT_TRUE(wal.CheckpointIfPending().ok());
    ASSERT_TRUE(wal.Commit(payload, true, {}).ok());
    EXPECT_EQ(wal.checkpoints(), 1u);
    EXPECT_EQ(wal.file_bytes(), 17u + 33u);  // checkpoint frame + txn frame
    EXPECT_EQ(wal.last_lsn(), 3u);
  }
  // Reopen: the sidecar holds the pre-wrap state, the log the rest.
  Wal wal(path, RecoveryOptions(/*recycle_bytes=*/64));
  std::string snapshot;
  uint64_t snapshot_lsn = 0;
  bool present = false;
  ASSERT_TRUE(wal.ReadCheckpointSidecar(&snapshot, &snapshot_lsn, &present).ok());
  ASSERT_TRUE(present);
  EXPECT_EQ(snapshot, "SNAPSHOT");
  EXPECT_EQ(snapshot_lsn, 2u);
  WalRecoverResult result;
  const auto frames = Replay(&wal, snapshot_lsn, &result);
  ASSERT_EQ(frames.size(), 1u);  // only LSN 3 is beyond the snapshot
  EXPECT_EQ(frames[0].first, 3u);
  EXPECT_EQ(result.checkpoint_lsn, 2u);
  EXPECT_EQ(result.last_lsn, 3u);
  RemoveWalFiles(path);
}

TEST(WalRecoveryTest, CorruptSidecarIsReportedAsDataLoss) {
  const std::string path = TestPath("wal_rec_badckpt");
  RemoveWalFiles(path);
  const std::string payload(16, 's');
  {
    Wal wal(path, RecoveryOptions(/*recycle_bytes=*/64));
    wal.SetCheckpointWriter([](uint64_t*) { return std::string("STATE"); });
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.Commit(payload, true, {}).ok());
      ASSERT_TRUE(wal.CheckpointIfPending().ok());
    }
    ASSERT_EQ(wal.checkpoints(), 1u);
  }
  {  // Corrupt one snapshot byte; the sidecar CRC must catch it.
    int fd = ::open((path + ".ckpt").c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const char bad = '!';
    ASSERT_EQ(::pwrite(fd, &bad, 1, 21), 1);
    ::close(fd);
  }
  Wal wal(path, RecoveryOptions(/*recycle_bytes=*/64));
  std::string snapshot;
  uint64_t lsn = 0;
  bool present = false;
  rlscommon::Status s = wal.ReadCheckpointSidecar(&snapshot, &lsn, &present);
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  RemoveWalFiles(path);
}

// --------------------------------------------------------------------
// Storage failure policy: write errors are typed, non-retryable
// DATA_LOSS; a failed sync or an unopenable path poisons the log
// permanently in both lifetimes.
// --------------------------------------------------------------------

TEST(WalFaultTest, FailedSyncPoisonsRecoveryModeWal) {
  const std::string path = TestPath("wal_fault_sync_rec");
  RemoveWalFiles(path);
  StorageFaultInjector fault(/*seed=*/1);
  fault.FailNthSync(1, EIO);
  Wal wal(path, RecoveryOptions(1 << 20, &fault));
  rlscommon::Status s = wal.Commit("payload", /*durable=*/true, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  EXPECT_TRUE(wal.poisoned());
  // fsyncgate: never retry a failed sync — all later commits fail fast.
  s = wal.Commit("payload", /*durable=*/true, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  s = wal.Commit("payload", /*durable=*/false, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  EXPECT_EQ(fault.sync_errors(), 1u);
  RemoveWalFiles(path);
}

// "Legacy mode" in test names below means the scratch log lifetime.
TEST(WalFaultTest, FailedSyncPoisonsLegacyModeWal) {
  const std::string path = TestPath("wal_fault_sync_legacy");
  StorageFaultInjector fault(/*seed=*/1);
  fault.FailNthSync(1, EIO);
  Wal wal(path, ScratchOptions(1 << 20, &fault));
  rlscommon::Status s = wal.Commit("payload", /*durable=*/true, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  EXPECT_TRUE(wal.poisoned());
  s = wal.Commit("payload", /*durable=*/true, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
}

TEST(WalFaultTest, ShortWriteIsRepairedAndNotRetryable) {
  const std::string path = TestPath("wal_fault_short");
  RemoveWalFiles(path);
  StorageFaultInjector fault(/*seed=*/2);
  Wal wal(path, RecoveryOptions(1 << 20, &fault));
  ASSERT_TRUE(wal.Commit("first", true, {}).ok());
  const uint64_t good = wal.file_bytes();
  // Disk error 5 bytes into the second frame; the process stays alive,
  // so the Wal truncates the torn frame away.
  fault.FailWriteAtByte(good + 5, ENOSPC);
  rlscommon::Status s = wal.Commit("second", true, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  EXPECT_FALSE(rlscommon::IsRetryableError(s.code()));
  EXPECT_FALSE(wal.poisoned());
  EXPECT_EQ(wal.file_bytes(), good);
  EXPECT_EQ(FileSize(path), good);
  // The log still works: the failed commit left no partial frame behind.
  ASSERT_TRUE(wal.Commit("third", true, {}).ok());
  WalRecoverResult result;
  Wal reopened(path, RecoveryOptions(1 << 20));
  const auto frames = Replay(&reopened, 0, &result);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].second, "first");
  EXPECT_EQ(frames[1].second, "third");
  RemoveWalFiles(path);
}

TEST(WalFaultTest, LegacyWriteErrorIsDataLoss) {
  const std::string path = TestPath("wal_fault_legacy_write");
  StorageFaultInjector fault(/*seed=*/3);
  fault.FailWriteAtByte(0, EIO);
  Wal wal(path, ScratchOptions(1 << 20, &fault));
  rlscommon::Status s = wal.Commit("payload", /*durable=*/false, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  EXPECT_FALSE(rlscommon::IsRetryableError(s.code()));
  // The torn frame is truncated away, as in a persistent log.
  EXPECT_EQ(wal.file_bytes(), 0u);
  EXPECT_EQ(FileSize(path), 0u);
}

TEST(WalFaultTest, UnopenablePathPoisonsBothLifetimes) {
  const std::string path = ::testing::TempDir() + "/rls_no_such_dir_" +
                           std::to_string(::getpid()) + "/x.wal";
  for (const bool persistent : {false, true}) {
    SCOPED_TRACE(persistent ? "persistent" : "scratch");
    WalOptions options = ScratchOptions(1 << 20);
    options.recovery = persistent;
    Wal wal(path, options);
    EXPECT_TRUE(wal.poisoned());
    // Nothing may be acknowledged that no file holds.
    EXPECT_EQ(wal.Commit("payload", /*durable=*/true, {}).code(),
              rlscommon::ErrorCode::kDataLoss);
    EXPECT_EQ(wal.Commit("payload", /*durable=*/false, {}).code(),
              rlscommon::ErrorCode::kDataLoss);
    EXPECT_EQ(wal.syncs(), 0u);

    // The database refuses to start over such a log.
    BackendProfile profile = BackendProfile::MySQL();
    profile.wal_recovery = persistent;
    Database db("unopenable", profile, path);
    EXPECT_EQ(db.Recover().code(), rlscommon::ErrorCode::kDataLoss);
  }
}

TEST(WalFaultTest, FailedCheckpointSyncAbortsWrapAndKeepsTheLog) {
  // Sync 1 of a checkpoint is the sidecar's fsync, sync 2 the fsync of
  // the WAL's directory that makes the sidecar's rename durable. If
  // either fails, the log must not be truncated: after a power cut the
  // truncation could survive while the sidecar does not.
  for (const uint64_t failing_sync : {1, 2}) {
    SCOPED_TRACE("failing sync " + std::to_string(failing_sync));
    const std::string path = TestPath("wal_fault_ckpt_sync");
    RemoveWalFiles(path);
    StorageFaultInjector fault(/*seed=*/9);
    const std::string payload(16, 'c');  // frame = 33 bytes
    {
      Wal wal(path, RecoveryOptions(/*recycle_bytes=*/64, &fault));
      wal.SetCheckpointWriter([](uint64_t*) { return std::string("STATE"); });
      ASSERT_TRUE(wal.Commit(payload, false, {}).ok());
      ASSERT_TRUE(wal.Commit(payload, false, {}).ok());  // 66 > 64
      ASSERT_TRUE(wal.checkpoint_pending());
      const uint64_t before = wal.file_bytes();
      fault.FailNthSync(failing_sync, EIO);
      rlscommon::Status s = wal.CheckpointIfPending();
      EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
      EXPECT_FALSE(wal.poisoned());
      EXPECT_EQ(wal.checkpoints(), 0u);
      EXPECT_EQ(wal.file_bytes(), before);
      EXPECT_EQ(FileSize(path), before);
      EXPECT_EQ(fault.sync_errors(), 1u);
    }
    Wal reopened(path, RecoveryOptions(/*recycle_bytes=*/64));
    WalRecoverResult result;
    const auto frames = Replay(&reopened, 0, &result);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].first, 1u);
    EXPECT_EQ(frames[1].first, 2u);
    EXPECT_EQ(result.torn_tail_bytes, 0u);
    RemoveWalFiles(path);
  }
}

TEST(WalFaultTest, CrashLeavesTornFrameForRecovery) {
  const std::string path = TestPath("wal_fault_crash");
  RemoveWalFiles(path);
  StorageFaultInjector fault(/*seed=*/4);
  uint64_t good = 0;
  {
    Wal wal(path, RecoveryOptions(1 << 20, &fault));
    ASSERT_TRUE(wal.Commit("committed", true, {}).ok());
    good = wal.file_bytes();
    // Power cut 9 bytes into the next frame: the torn bytes stay on
    // disk (no repair — the machine is "dead") and the Wal poisons.
    fault.CrashAtByte(good + 9);
    rlscommon::Status s = wal.Commit("lost-transaction", true, {});
    EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
    EXPECT_TRUE(fault.crashed());
    EXPECT_TRUE(wal.poisoned());
    s = wal.Commit("after-crash", true, {});
    EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  }
  ASSERT_EQ(FileSize(path), good + 9);  // torn frame present on disk
  // "Reboot": recovery finds the committed prefix, drops the torn tail.
  Wal wal(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&wal, 0, &result);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].second, "committed");
  EXPECT_EQ(result.torn_tail_bytes, 9u);
  EXPECT_EQ(FileSize(path), good);
  RemoveWalFiles(path);
}

// --------------------------------------------------------------------
// The commit path: leader/follower batching (one write + one sync + one
// modeled penalty per batch), LSN ordering, the failure policy for
// grouped frames, and the batch cap of one that models the paper's
// per-commit flush.
// --------------------------------------------------------------------

/// Group-commit options with a linger long enough that `max_commits`
/// concurrent committers deterministically land in ONE batch.
WalOptions GroupOptions(uint64_t recycle_bytes, std::size_t max_commits,
                        std::chrono::microseconds max_wait,
                        StorageFaultInjector* fault = nullptr) {
  WalOptions options = RecoveryOptions(recycle_bytes, fault);
  options.group_max_commits = max_commits;
  options.group_max_wait = max_wait;
  return options;
}

TEST(WalGroupCommitTest, BatchSharesOneSyncAndOnePenalty) {
  const std::string path = TestPath("wal_group_batch");
  RemoveWalFiles(path);
  {
    // Linger until all 4 committers are queued: exactly one batch.
    Wal wal(path, GroupOptions(1 << 20, 4, std::chrono::microseconds(2'000'000)));
    const auto penalty = std::chrono::microseconds(1000);
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&wal, penalty, i] {
        EXPECT_TRUE(
            wal.Commit("payload-" + std::to_string(i), true, penalty).ok());
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(wal.commits(), 4u);
    EXPECT_EQ(wal.syncs(), 1u);
    EXPECT_EQ(wal.group_commits(), 1u);
    // Penalty-per-SYNC invariant: 4 durable commits with a 1000us
    // modeled penalty each charge 1000us total, not 4000us.
    EXPECT_EQ(wal.penalty_us_charged(), 1000u);
    EXPECT_EQ(wal.last_lsn(), 4u);
  }
  // The batch's frames replay individually, in LSN order, densely.
  Wal reopened(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&reopened, 0, &result);
  ASSERT_EQ(frames.size(), 4u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].first, i + 1);
  }
  RemoveWalFiles(path);
}

TEST(WalGroupCommitTest, PerTxnModeChargesPenaltyPerCommit) {
  const std::string path = TestPath("wal_pertxn_penalty");
  RemoveWalFiles(path);
  Wal wal(path, GroupOptions(1 << 20, /*max_commits=*/1,
                             std::chrono::microseconds(0)));
  const auto penalty = std::chrono::microseconds(300);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.Commit("payload", true, penalty).ok());
  }
  // Cap of one: every durable commit pays its own sync and its own
  // full modeled penalty (the paper's serialized Fig. 4 cost model).
  EXPECT_EQ(wal.syncs(), 3u);
  EXPECT_EQ(wal.penalty_us_charged(), 900u);
  RemoveWalFiles(path);
}

TEST(WalGroupCommitTest, CapOfOneSyncsEveryConcurrentCommit) {
  const std::string path = TestPath("wal_cap_one_stress");
  RemoveWalFiles(path);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  const auto penalty = std::chrono::microseconds(300);
  {
    Wal wal(path, GroupOptions(1 << 20, /*max_commits=*/1,
                               std::chrono::microseconds(0)));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, penalty, t] {
        for (int i = 0; i < kPerThread; ++i) {
          EXPECT_TRUE(wal.Commit("t" + std::to_string(t) + "-" +
                                     std::to_string(i),
                                 true, penalty)
                          .ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    // However many committers contend, a batch of one never shares a
    // sync or a penalty.
    EXPECT_EQ(wal.commits(), static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(wal.syncs(), wal.commits());
    EXPECT_EQ(wal.group_commits(), wal.commits());
    EXPECT_EQ(wal.penalty_us_charged(),
              wal.commits() * static_cast<uint64_t>(penalty.count()));
  }
  Wal reopened(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&reopened, 0, &result);
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].first, i + 1);  // dense, ascending
  }
  RemoveWalFiles(path);
}

TEST(WalGroupCommitTest, ConcurrentCommittersKeepDenseOrderedLsns) {
  const std::string path = TestPath("wal_group_stress");
  RemoveWalFiles(path);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  {
    // No linger: batches form from natural contention (TSan exercises
    // the waiter handoff under real interleavings).
    Wal wal(path, GroupOptions(1 << 20, 64, std::chrono::microseconds(0)));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          EXPECT_TRUE(wal.Commit("t" + std::to_string(t) + "-" +
                                     std::to_string(i),
                                 true, {})
                          .ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(wal.commits(), static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(wal.last_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_LE(wal.syncs(), wal.commits());
    EXPECT_GE(wal.group_commits(), 1u);
  }
  Wal reopened(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&reopened, 0, &result);
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].first, i + 1);  // dense, ascending
  }
  RemoveWalFiles(path);
}

TEST(WalGroupCommitTest, FailedGroupSyncPoisonsAndFailsEveryMember) {
  const std::string path = TestPath("wal_group_sync_fail");
  RemoveWalFiles(path);
  StorageFaultInjector fault(/*seed=*/7);
  fault.FailNthSync(1, EIO);
  Wal wal(path,
          GroupOptions(1 << 20, 3, std::chrono::microseconds(2'000'000), &fault));
  std::atomic<int> data_loss{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&wal, &data_loss, i] {
      rlscommon::Status s =
          wal.Commit("member-" + std::to_string(i), true, {});
      if (s.code() == rlscommon::ErrorCode::kDataLoss) ++data_loss;
    });
  }
  for (auto& t : threads) t.join();
  // The one failed sync fails the WHOLE parked group, and poisons the
  // log exactly once (fsyncgate: no retry ever claims durability).
  EXPECT_EQ(data_loss.load(), 3);
  EXPECT_TRUE(wal.poisoned());
  EXPECT_EQ(fault.sync_errors(), 1u);
  rlscommon::Status s = wal.Commit("after", true, {});
  EXPECT_EQ(s.code(), rlscommon::ErrorCode::kDataLoss);
  RemoveWalFiles(path);
}

TEST(WalGroupCommitTest, CrashMidBatchReplaysWholeTransactionPrefix) {
  const std::string path = TestPath("wal_group_crash");
  RemoveWalFiles(path);
  StorageFaultInjector fault(/*seed=*/8);
  // 3 x 16-byte payloads = 3 x 33-byte frames in one 99-byte batch
  // append; the power cut lands 17 bytes into the second frame.
  fault.CrashAtByte(50);
  {
    Wal wal(path, GroupOptions(1 << 20, 3,
                               std::chrono::microseconds(2'000'000), &fault));
    std::atomic<int> data_loss{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&wal, &data_loss] {
        if (wal.Commit(std::string(16, 'g'), true, {}).code() ==
            rlscommon::ErrorCode::kDataLoss) {
          ++data_loss;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(data_loss.load(), 3);
    EXPECT_TRUE(wal.poisoned());
    EXPECT_TRUE(fault.crashed());
  }
  ASSERT_EQ(FileSize(path), 50u);  // torn batch tail present on disk
  // "Reboot": replay recovers a prefix of WHOLE transactions — the
  // complete first frame — and drops the torn second frame.
  Wal reopened(path, RecoveryOptions(1 << 20));
  WalRecoverResult result;
  const auto frames = Replay(&reopened, 0, &result);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, 1u);
  EXPECT_EQ(result.torn_tail_bytes, 17u);
  EXPECT_EQ(FileSize(path), 33u);
  RemoveWalFiles(path);
}

TEST(WalGroupCommitTest, LegacyModeGroupingKeepsByteAccounting) {
  // The Fig. 4 bench's group-commit series runs on a scratch log:
  // bytes/commit accounting must not depend on how commits batch.
  const std::string path = TestPath("wal_group_legacy");
  Wal wal(path, ScratchOptions(1 << 20));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal] {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(wal.Commit(std::string(10, 'x'), true, {}).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wal.commits(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(wal.bytes_logged(), static_cast<uint64_t>(kThreads * kPerThread * 10));
  EXPECT_EQ(wal.file_bytes(),
            static_cast<uint64_t>(kThreads * kPerThread) * FrameBytes(10));
  EXPECT_LE(wal.syncs(), wal.commits());
}

}  // namespace
}  // namespace rdb
