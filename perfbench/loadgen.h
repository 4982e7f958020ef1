// Load generator of the RLS performance benchmark.
//
// Drives a server through net::RpcClient::BeginCall and the rls::protocol
// codecs, one lane per client connection and one generator thread per
// lane. Two disciplines:
//   * open loop  — each lane sends on a seeded Poisson schedule at a
//     fixed offered rate, whether or not earlier calls have answered;
//     every call is timed from its *scheduled* send time, so a stall
//     also charges the calls queued behind it;
//   * closed loop — each lane keeps a fixed number of calls in flight
//     and sends the next one when one completes (peak throughput).
//
// The workload (workload.h) supplies the op stream (as chains of
// dependent ops, e.g. a create and the delete of the same name), the
// request encoding, and the answer check against its model of the catalog.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/rpc.h"
#include "workload.h"

namespace perfbench {

/// Deterministic op stream of one lane. Ops of a chain are spread
/// `kChainGap` slots apart (hundreds of milliseconds at the offered
/// rates) so a dependent op is normally due long after its predecessor
/// answered.
class OpStream {
 public:
  static constexpr uint64_t kChainGap = 1024;
  static constexpr uint64_t kPingEvery = 100;  // one Ping per this many slots

  OpStream(RlsWorkload* workload, uint64_t seed, uint32_t lane);

  /// The op for the next slot; `*slot` receives its slot number.
  Op Next(uint64_t* slot);

  /// The slot the next call to Next hands out.
  uint64_t next_slot() const { return next_slot_; }

  /// Removes and returns the chain ops scheduled after the last slot
  /// handed out, in slot order (a phase ends by running them).
  std::vector<Op> TakeDeferred();

 private:
  RlsWorkload* workload_;
  uint32_t lane_;
  rlscommon::Xoshiro256 rng_;
  uint64_t next_slot_ = 0;
  std::map<uint64_t, Op> deferred_;
  std::vector<Op> chain_;
};

/// One in-flight or finished call; lanes reuse records ring-wise.
struct OpRecord {
  Op op;
  uint64_t slot = ~uint64_t{0};
  int64_t due_ns = 0;   // scheduled send time (open loop) or send time
  int64_t sent_ns = 0;
  int64_t done_ns = 0;  // written before `state` is released
  uint64_t detail[2] = {0, 0};
  uint64_t trace_id = 0;
  bool harvested = true;
  std::atomic<uint8_t> state{0};  // 0 in flight, 1 ok, 2 failed
};

/// One client connection with its generator state.
struct Lane {
  Lane(std::unique_ptr<net::RpcClient> client, RlsWorkload* workload, uint64_t seed,
       uint32_t index);

  /// Records per lane. A record is harvested when its slot comes round
  /// again (or when the phase ends), so the ring need only cover a
  /// chain's span (OpStream::kChainGap) plus the calls a valid run has in
  /// flight.
  static constexpr std::size_t kRing = 1 << 13;

  std::unique_ptr<net::RpcClient> client;
  uint32_t index;
  OpStream stream;
  std::vector<OpRecord> ring;  // indexed by slot - phase_base, wrapping
  uint64_t phase_base = 0;     // first slot of the running phase
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> completed{0};
};

struct PhaseOptions {
  bool open_loop = true;
  double rate = 0;        // open loop: offered ops/s summed over lanes
  double seconds = 1;
  int depth = 8;          // closed loop: calls in flight per lane
  int windows = 1;        // equal time windows the phase is reported in
  bool drain = true;      // finish pending chain ops when the phase ends
  bool verify = true;     // run RlsWorkload::Verify on every answer
  bool spans = false;     // record one client span per call (traced runs)
  uint64_t seed = 1;      // arrival schedule
};

struct PhaseResult {
  uint64_t attempted = 0;  // every call, the closing chain ops included
  uint64_t scheduled = 0;  // calls sent by the schedule within the phase
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_sent = 0;  // request bytes written by the clients
  // Open loop only: latency from the scheduled send time per window
  // (by scheduled time), microseconds.
  std::vector<std::vector<double>> read_us, write_us, ping_us;
  // How late the generator sent, per window (by scheduled time), not
  // counting sends held up behind a chain op whose predecessor had not
  // answered yet (those stalls are the server's and show in latency and
  // backlog).
  std::vector<std::vector<double>> lag_us;
  uint64_t chain_waits = 0;  // sends that waited for a predecessor
  // Closed loop only: calls answered per second in each window.
  std::vector<double> window_ops_s;
  uint64_t backlog_end = 0;               // calls in flight when the schedule ended
  std::vector<uint64_t> in_flight_late;   // calls in flight, sampled every 10 ms
                                          // over the phase's second half
};

/// Runs one phase on all lanes. With `drain`, then runs the chain ops
/// still pending synchronously, so every chain is complete when it
/// returns; otherwise they stay due in the next phase.
PhaseResult RunPhase(std::vector<std::unique_ptr<Lane>>& lanes, RlsWorkload* workload,
                     const PhaseOptions& options);

/// Pools phase `from` into `into`: its windows follow those of `into`,
/// counts add up, and backlog_end is the larger of the two.
void AppendPhase(PhaseResult* into, PhaseResult from);

/// Steady-clock nanoseconds since the clock's epoch.
int64_t NowNs();

}  // namespace perfbench
