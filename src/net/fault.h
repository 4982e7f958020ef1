// Fault-injection fabric for the in-process network.
//
// The paper's soft-state argument (§4, §6) is that an RLS keeps working
// through server failure: clients tolerate transient unavailability and a
// restarted RLI reconverges from periodic full/Bloom updates. To exercise
// that claim an InProcTransport can carry a FaultInjector that perturbs
// traffic at well-defined decision points:
//
//   * per-endpoint FaultPlan: message drop probability, extra delivery
//     latency, connect-failure probability, forced disconnect after N
//     messages on a connection;
//   * partition pairs: traffic between two named endpoints fails in both
//     directions until healed;
//   * listener blackout windows: an endpoint goes dark — new connects are
//     refused and in-flight traffic to/from it is dropped — until the
//     window ends (modeling a crashed or unreachable host).
//
// All probabilistic decisions draw from one seeded xoshiro256** stream,
// so a single-threaded chaos driver replays the exact same fault
// sequence for a given seed. Every injected fault is appended to an
// event log that tests can compare across runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/rng.h"

namespace net {

/// Faults applied to traffic toward one endpoint (the destination name a
/// connection was established to, or the listener address on connect).
struct FaultPlan {
  /// Probability that a message toward the endpoint is silently dropped
  /// (the sender sees success; the receiver never sees the message — a
  /// lost datagram, surfaced to callers as an RPC deadline expiry).
  double drop_probability = 0.0;

  /// Probability that a Connect() attempt to the endpoint is refused
  /// with UNAVAILABLE.
  double connect_failure_probability = 0.0;

  /// Added to the link delay of every delivered message (slow path /
  /// congested peer).
  std::chrono::microseconds extra_latency{0};

  /// Force-close a connection when its (per-connection) sent-message
  /// count exceeds this value; 0 = never. Models a peer that dies
  /// mid-conversation.
  uint64_t disconnect_after_messages = 0;
};

/// What the injector did to one message or connect attempt.
enum class FaultKind : uint8_t {
  kDrop = 0,            // FaultPlan::drop_probability fired
  kDisconnect = 1,      // disconnect_after_messages exceeded
  kConnectRefused = 2,  // connect refused (probability or blackout)
  kBlackoutDrop = 3,    // message dropped because an endpoint is dark
  kPartitionDrop = 4,   // message dropped across a partition pair
};

std::string_view FaultKindName(FaultKind kind);

/// One entry of the injector's event log. `seq` is the global decision
/// order; for a fixed seed and a deterministic driver the whole log
/// replays identically.
struct FaultEvent {
  uint64_t seq = 0;
  FaultKind kind = FaultKind::kDrop;
  std::string from;  // sender endpoint identity
  std::string to;    // destination endpoint identity

  bool operator==(const FaultEvent& other) const {
    return seq == other.seq && kind == other.kind && from == other.from &&
           to == other.to;
  }
};

/// Verdict for one message send.
enum class SendVerdict { kDeliver, kDrop, kDisconnect };

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed,
                         rlscommon::Clock* clock = rlscommon::SystemClock::Instance())
      : rng_(seed), clock_(clock) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- scenario configuration ---

  void SetPlan(const std::string& endpoint, FaultPlan plan);
  void ClearPlan(const std::string& endpoint);

  /// Partitions the pair (symmetric): sends between `a` and `b` are
  /// dropped and connects refused, in both directions.
  void Partition(const std::string& a, const std::string& b);
  void Heal(const std::string& a, const std::string& b);
  void HealAllPartitions();

  /// Endpoint goes dark for `window` (Duration::max() via Blackout() for
  /// "until healed"). New connects are refused; messages to or from it
  /// are dropped.
  void BlackoutFor(const std::string& endpoint, rlscommon::Duration window);
  void Blackout(const std::string& endpoint);
  void ClearBlackout(const std::string& endpoint);
  bool IsBlackedOut(const std::string& endpoint) const;

  // --- decision points (called by the transport) ---

  /// Verdict for a Connect() from `from` to listener `to`. OK = proceed.
  rlscommon::Status OnConnect(const std::string& from, const std::string& to);

  /// Verdict for one message from `from` to `to`; `message_index` is the
  /// 1-based per-connection sent-message counter. On kDeliver,
  /// `extra_delay` receives any injected latency.
  SendVerdict OnSend(const std::string& from, const std::string& to,
                     uint64_t message_index, rlscommon::Duration* extra_delay);

  // --- introspection ---

  std::vector<FaultEvent> Events() const;
  uint64_t drops() const;
  uint64_t disconnects() const;
  uint64_t connects_refused() const;

 private:
  /// Normalized (sorted) partition key.
  static std::pair<std::string, std::string> PairKey(const std::string& a,
                                                     const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  bool BlackedOutLocked(const std::string& endpoint) const;
  void RecordLocked(FaultKind kind, const std::string& from, const std::string& to);

  mutable std::mutex mu_;
  rlscommon::Xoshiro256 rng_;
  rlscommon::Clock* clock_;
  std::map<std::string, FaultPlan> plans_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::map<std::string, rlscommon::TimePoint> blackout_until_;
  std::vector<FaultEvent> events_;
  uint64_t next_seq_ = 0;
  uint64_t drops_ = 0;
  uint64_t disconnects_ = 0;
  uint64_t connects_refused_ = 0;
};

}  // namespace net
