// Soft-state update machinery on the LRC side (paper §3.2–3.5).
//
// Four update types, selectable per LRC:
//   * kFull        — periodic uncompressed updates listing every logical
//                    name in the LRC.
//   * kImmediate   — infrequent full updates plus frequent incremental
//                    updates carrying recent changes, sent after a short
//                    interval (default 30 s) or after a configurable
//                    number of pending changes (§3.3).
//   * kBloom       — Bloom-filter-compressed updates (§3.4): the LRC
//                    maintains a counting filter so deletions can unset
//                    bits, and ships the plain bitmap.
//   * kPartitioned — uncompressed updates partitioned by glob patterns on
//                    the logical namespace; each RLI receives only its
//                    subset (§3.5).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/trace_context.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "rls/lrc_store.h"
#include "rls/protocol.h"

namespace rls {

enum class UpdateMode { kNone, kFull, kImmediate, kBloom, kPartitioned };

std::string_view UpdateModeName(UpdateMode mode);

/// One RLI this LRC updates.
struct UpdateTarget {
  std::string address;                        // transport listen address
  net::LinkModel link = net::LinkModel::Loopback();
  std::vector<std::string> patterns = {};     // partitioned mode: globs
};

struct UpdateConfig {
  UpdateMode mode = UpdateMode::kNone;
  std::vector<UpdateTarget> targets;

  /// Full updates are resent every `full_interval` (0 = manual only).
  std::chrono::milliseconds full_interval{0};
  /// Immediate mode: incremental update after this long with pending
  /// changes (paper default: 30 seconds)...
  std::chrono::milliseconds immediate_interval{30000};
  /// ...or as soon as this many changes are pending.
  std::size_t immediate_max_pending = 100;

  /// Names per kSsFullChunk message.
  std::size_t chunk_size = 10000;

  /// Sizing hint for the Bloom filter (10 bits/entry policy). 0 = size
  /// from the store's current count at first build.
  uint64_t bloom_expected_entries = 0;

  /// Credential presented to RLIs.
  gsi::Credential credential;

  // --- failure handling (soft-state through server failure, §4/§6) ---

  /// Consecutive send failures before a target is marked unhealthy.
  uint32_t unhealthy_after_failures = 3;

  /// After a failed send the target's schedule backs off exponentially
  /// between these bounds; the next (recovery) attempt waits it out.
  std::chrono::milliseconds target_backoff_initial{100};
  std::chrono::milliseconds target_backoff_max{2000};

  /// Per-RPC deadline for update sends; zero = wait forever. Without a
  /// deadline a blacked-out RLI would hang the update thread.
  std::chrono::milliseconds rpc_timeout{5000};

  /// Per-RPC retry policy for update sends (default: no retry — the
  /// manager's own health/backoff layer handles persistence).
  net::RetryPolicy rpc_retry;

  /// Seed for retry-backoff jitter (deterministic chaos tests).
  uint64_t retry_seed = 0xd1ce;
};

/// Statistics for EXPERIMENTS.md tables (Table 3 columns): a read of the
/// manager's registry instruments, named beside each field.
struct UpdateStats {
  uint64_t full_updates_sent = 0;         // ss_updates_sent_total{mode="full"}
  uint64_t incremental_updates_sent = 0;  // ss_updates_sent_total{mode="incremental"}
  uint64_t bloom_updates_sent = 0;        // ss_updates_sent_total{mode="bloom"}
  uint64_t names_sent = 0;                // ss_names_sent_total
  uint64_t bytes_sent = 0;                // ss_bytes_sent_total, every target
  uint64_t send_failures = 0;             // ss_send_failures_total
  uint64_t full_resends = 0;              // ss_full_resends_total
  double last_bloom_generate_seconds = 0;  // ss_bloom_build_us
};

class UpdateManager {
 public:
  /// Registers the manager's instruments in `registry`, which must
  /// outlive it: ss_updates_sent_total{mode=...}, ss_names_sent_total,
  /// ss_bytes_sent_total, ss_bloom_bits_set, ss_bloom_build_us,
  /// ss_update_duration_us, and the target-health counters.
  UpdateManager(net::Transport* network, LrcStore* store, std::string lrc_url,
                UpdateConfig config, obs::Registry* registry,
                rlscommon::Clock* clock = rlscommon::SystemClock::Instance());
  ~UpdateManager();

  UpdateManager(const UpdateManager&) = delete;
  UpdateManager& operator=(const UpdateManager&) = delete;

  /// Starts the background scheduler: periodic full rounds, immediate
  /// flushes and recovery resends, each at its exact deadline on the
  /// injected clock.
  void Start();
  void Stop();

  /// Store observer hook: a logical name appeared or disappeared.
  void OnMappingChange(const std::string& lfn, bool added);

  /// Adds/removes an update target at runtime (the kLrcRliAdd/Remove
  /// management operations).
  void AddTarget(UpdateTarget target);
  void RemoveTarget(const std::string& address);

  /// Sends one full update round now (mode-dependent payload). Blocks
  /// until every target acknowledged; the elapsed time lands in
  /// ss_update_duration_us.
  rlscommon::Status ForceFullUpdate();

  /// Sends pending incremental changes now (immediate/bloom bookkeeping
  /// is flushed too). Returns once every change pending at the call has
  /// been sent or has failed, also when a concurrent flush (the
  /// scheduler's) took the batch first.
  rlscommon::Status FlushImmediate();

  /// (Re)builds the Bloom filter from the store — the one-time cost the
  /// paper reports in Table 3 column 3.
  rlscommon::Status RebuildBloomFilter();

  UpdateStats stats() const;

  /// Per-target freshness snapshot for introspection.
  std::vector<TargetStatus> TargetStatuses() const;

  const std::string& lrc_url() const { return lrc_url_; }
  UpdateMode mode() const { return config_.mode; }

 private:
  struct TargetState {
    explicit TargetState(UpdateTarget t) : target(std::move(t)) {}

    const UpdateTarget target;

    /// Serializes RPCs to this target; held across sends so a slow or
    /// failing target never blocks introspection of the others.
    std::mutex send_mu;
    std::unique_ptr<net::RpcClient> client;  // guarded by send_mu

    /// Guards the bookkeeping below (held briefly, never across RPCs).
    mutable std::mutex mu;
    uint64_t updates_sent = 0;
    rlscommon::TimePoint last_update;
    bool ever_updated = false;
    // Health state machine: consecutive failures trip `healthy`; every
    // failure schedules an exponentially backed-off recovery attempt and
    // marks the target for a full resend (a lost delta means the RLI can
    // only reconverge from a complete update).
    bool healthy = true;
    uint32_t consecutive_failures = 0;
    bool needs_full_resend = false;
    rlscommon::TimePoint backoff_until{};
    rlscommon::Duration backoff{};
    uint64_t full_resends = 0;
  };

  using TargetPtr = std::shared_ptr<TargetState>;

  /// Lazily connects to a target (caller holds state->send_mu).
  rlscommon::Status ClientFor(TargetState* state, net::RpcClient** out);

  rlscommon::Status SendFullUncompressed(TargetState* state,
                                         const std::vector<std::string>* patterns);
  rlscommon::Status SendBloom(TargetState* state);
  rlscommon::Status SendIncremental(TargetState* state,
                                    const std::vector<std::string>& added,
                                    const std::vector<std::string>& removed);

  /// One mode-appropriate complete update (full listing or whole Bloom
  /// filter) to one target, with health bookkeeping. `recovery` marks
  /// the send as a post-failure resend for stats/metrics.
  rlscommon::Status SendCompleteUpdate(TargetState* state, bool recovery);

  /// Snapshot of the target list (for iteration without targets_mu_).
  std::vector<TargetPtr> SnapshotTargets() const;

  void RecordSendSuccess(TargetState* state, bool complete_update);
  void RecordSendFailure(TargetState* state);

  /// Retries complete updates to targets whose backoff expired; returns
  /// the earliest backoff still running (TimePoint::max() if none). A
  /// resend that fails wakes the scheduler to plan its new backoff.
  rlscommon::TimePoint RecoveryPass();

  /// When the open immediate batch is due: at once when it is full,
  /// `immediate_interval` after `last_flush` otherwise, never when no
  /// batch is open.
  rlscommon::TimePoint ImmediateDue(rlscommon::TimePoint last_flush);

  /// Makes the scheduler plan its next deadline again.
  void WakeScheduler();

  void SchedulerLoop();

  net::Transport* network_;
  LrcStore* store_;
  std::string lrc_url_;
  UpdateConfig config_;
  rlscommon::Clock* clock_;

  // Instruments (owned by registry_); the manager keeps no other count.
  obs::Registry* registry_;
  obs::Counter* metric_full_sent_;
  obs::Counter* metric_incremental_sent_;
  obs::Counter* metric_bloom_sent_;
  obs::Counter* metric_names_sent_;
  obs::Counter* metric_bytes_sent_;
  obs::Gauge* metric_bloom_bits_set_;
  obs::Gauge* metric_bloom_build_us_;
  obs::Histogram* metric_update_duration_;
  obs::Counter* metric_send_failures_;
  obs::Counter* metric_target_unhealthy_;
  obs::Counter* metric_target_recovered_;
  obs::Counter* metric_full_resends_;
  obs::Gauge* metric_unhealthy_targets_;

  mutable std::mutex targets_mu_;  // guards the vector, not the states
  std::vector<TargetPtr> targets_;

  // Held by FlushImmediate from taking the batch through its sends.
  std::mutex flush_mu_;

  // Pending incremental changes; +1 = added, -1 = removed, 0 = cancelled.
  std::mutex pending_mu_;
  std::unordered_map<std::string, int> pending_;
  std::size_t pending_count_ = 0;
  // Trace of the mutation that made the batch non-empty, restored when
  // the async flusher ships it (so the flush carries a client's trace).
  rlscommon::TraceContext pending_trace_;  // guarded by pending_mu_

  // Counting Bloom filter mirroring the store (bloom mode).
  std::mutex bloom_mu_;
  bloom::CountingBloomFilter counting_;
  bool bloom_built_ = false;

  std::atomic<uint64_t> next_update_id_{1};

  std::mutex scheduler_mu_;
  std::condition_variable scheduler_cv_;
  std::thread scheduler_;
  bool running_ = false;  // guarded by scheduler_mu_
  bool wake_ = false;     // guarded by scheduler_mu_: the plan changed
};

}  // namespace rls
