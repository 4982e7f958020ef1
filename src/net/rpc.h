// RPC layer: multi-threaded server + blocking client.
//
// Mirrors the original RLS server structure (§3.1): a multi-threaded
// server authenticates each connection (GSI), then services framed
// request/response messages. One server thread per connection, matching
// the thread-management overhead the paper attributes to its server,
// and every admitted request runs on the thread that read it. With
// ServerOptions::workers > 0 at most that many normal-lane handlers run
// at once: a reader that finds every execution slot held waits for one
// in arrival order, and one that finds queue_depth readers already
// waiting is shed. That gives the server a bounded overload surface
// (admit / shed / prioritize) without handing a request to another
// thread.
//
// Wire protocol: the first message on a connection must be an AUTH
// request carrying the client's DN (empty = anonymous). Subsequent
// messages are dispatched to the registered handler by opcode. Error
// responses carry {u8 error code, string message}.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gsi/gsi.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace obs {
class Span;
}

namespace net {

/// Opcode reserved for the connection handshake.
inline constexpr uint16_t kOpcodeAuth = 0;

/// Encodes a failed Status as an error-response payload.
void EncodeError(const rlscommon::Status& status, std::string* payload);

/// Decodes an error-response payload back into a Status. PROTOCOL for a
/// malformed payload and for a code that is not an error (0 or above
/// ErrorCode::kLast).
rlscommon::Status DecodeError(std::string_view payload);

/// Application dispatch: (auth context, opcode, request) -> response.
/// Returning a non-OK status sends an error response; throwing is a bug.
using RpcHandler = std::function<rlscommon::Status(
    const gsi::AuthContext&, uint16_t opcode, const std::string& request,
    std::string* response)>;

/// Verdict of an admission check, made after authentication and before
/// the request takes an execution slot. A non-OK status is returned to
/// the client immediately (the handler never sees the request);
/// `priority` puts admitted work on the protected lane that overload
/// cannot starve (soft-state updates, admin ops, stats probes): it runs
/// at once, without a slot.
struct AdmitDecision {
  rlscommon::Status status;
  bool priority = false;
};

/// Policy hook deciding admission per request. Runs on the connection
/// thread; must be cheap and thread-safe.
using AdmissionHook =
    std::function<AdmitDecision(const gsi::AuthContext&, uint16_t opcode)>;

struct ServerOptions {
  gsi::AuthManager auth = gsi::AuthManager::Open();

  /// When set, the server registers per-method instruments here:
  ///   rpc_requests_total{method=...}, rpc_errors_total{method=...},
  ///   rpc_request_latency_us{method=...}, rpc_active_connections,
  ///   rpc_shed_total{reason="queue_full"}, and with workers > 0
  ///   rpc_queue_depth{lane="normal"} (readers waiting for a slot). The
  /// registry must outlive the server; it is the server's only count of
  /// requests and sheds.
  obs::Registry* metrics = nullptr;

  /// Renders an opcode as the `method` label value (e.g. rls::OpName).
  /// Unset = the decimal opcode.
  std::function<std::string(uint16_t)> opcode_name;

  /// Admission policy; unset = admit everything on the normal lane.
  AdmissionHook admission;

  /// Execution slots: how many normal-lane handlers may run at once,
  /// each on the connection thread that read its request. A reader that
  /// finds every slot held waits for one, in arrival order; a slot is
  /// returned when the handler returns, before the reply is sent. 0 (the
  /// default) takes no slot. Priority-lane requests never take one.
  int workers = 0;

  /// How many readers may wait for a slot. One more is shed with
  /// UNAVAILABLE + retry-after instead of queueing unbounded latency.
  /// 0 = unbounded.
  std::size_t queue_depth = 0;

  /// Retry-after hint attached to queue-full sheds.
  std::chrono::milliseconds shed_retry_after{50};
};

class RpcServer {
 public:
  RpcServer(Transport* network, std::string address, ServerOptions options,
            RpcHandler handler);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Registers the listener; AlreadyExists if the address is taken.
  rlscommon::Status Start();

  /// Unregisters, closes all connections, joins service threads.
  void Stop();

  const std::string& address() const { return address_; }
  std::size_t active_connections() const;

 private:
  /// Per-method instrument pointers, resolved once per opcode and cached
  /// so the request hot path does no registry (map+mutex) lookups.
  struct OpMetrics {
    std::string method;  // rendered method label for this opcode
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
    // Per-stage latency histograms (rpc_stage_latency_us{method,stage}),
    // resolved lazily per stage name. The live table is published
    // copy-on-write so the tracing-enabled hot path reads it with a
    // single acquire load and a short linear scan — no lock. Retired
    // versions stay parked in `stage_versions` (a handful of tiny
    // vectors per method, freed with the server) so a racing reader can
    // never dangle.
    struct StageTable {
      std::vector<std::pair<std::string, obs::Histogram*>> entries;
    };
    std::atomic<const StageTable*> stage_table{nullptr};
    std::mutex stage_mu;  // serializes table updates only
    std::vector<std::unique_ptr<const StageTable>> stage_versions;
  };
  static constexpr std::size_t kOpcodeCacheSize = 256;

  /// Serves connection `id` until it closes, then removes it.
  void ServeConnection(std::shared_ptr<Connection> conn, uint64_t id);
  OpMetrics* MetricsFor(uint16_t opcode);

  /// Stage histogram for (opcode method, stage); created on first use.
  obs::Histogram* StageHistogram(OpMetrics* metrics, std::string_view stage);

  /// Records per-stage latencies (deltas between consecutive span hops)
  /// into the stage histograms, with the trace id as exemplar.
  void RecordStageLatencies(OpMetrics* metrics, const obs::Span& span,
                            uint64_t trace_id);

  /// Runs the handler for one admitted request and sends the reply. A
  /// `slotted` request gives its execution slot back as the handler
  /// returns, before the reply's Send (and any modeled link delay).
  void ExecuteRequest(const std::shared_ptr<Connection>& conn,
                      const gsi::AuthContext& context, Message msg,
                      std::chrono::steady_clock::time_point recv_time,
                      std::chrono::steady_clock::time_point admit_time,
                      bool slotted);

  /// Takes one of the `workers` execution slots, waiting in arrival
  /// order while all are held. UNAVAILABLE + retry-after if queue_depth
  /// readers already wait; UNAVAILABLE if Stop() ends the wait.
  rlscommon::Status AcquireSlot();
  /// Returns a slot, handing it straight to the longest waiter if any.
  void ReleaseSlot();

  Transport* network_;
  std::string address_;
  ServerOptions options_;
  RpcHandler handler_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  // Execution slots. A reader that must wait parks its own SlotWaiter
  // at the back of waiters_; ReleaseSlot grants the freed slot to the
  // front one directly, so no later reader can overtake it.
  struct SlotWaiter {
    std::condition_variable cv;
    bool granted = false;
  };
  std::mutex slot_mu_;
  int free_slots_ = 0;               // guarded by slot_mu_
  std::deque<SlotWaiter*> waiters_;  // guarded by slot_mu_; oldest first
  bool slots_closed_ = false;        // guarded by slot_mu_; set by Stop()
  obs::Counter* shed_queue_full_ = nullptr;

  // Cache slots are created lazily and retired only at destruction. They
  // point into op_metrics_by_method_, which holds one entry per method
  // label (map nodes never move).
  std::array<std::atomic<OpMetrics*>, kOpcodeCacheSize> op_metrics_{};
  std::mutex op_metrics_mu_;
  std::map<std::string, OpMetrics> op_metrics_by_method_;

  // A connection leaves connections_ and threads_ when its thread has
  // served it; a thread cannot join itself, so it waits in finished_
  // for the next accept or Stop() to join it.
  mutable std::mutex mu_;
  uint64_t next_conn_id_ = 0;
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  std::map<uint64_t, std::thread> threads_;
  std::vector<std::thread> finished_;
};

/// Retry policy for transient transport failures. Attempt k (0-based)
/// sleeps initial_backoff * multiplier^(k-1) before retrying, capped at
/// max_backoff, with up to ±jitter fraction of randomization so a fleet
/// of clients doesn't thunder in lock-step. Only retryable codes
/// (UNAVAILABLE, TIMEOUT — see rlscommon::IsRetryableError) are retried;
/// PROTOCOL and application errors fail immediately.
struct RetryPolicy {
  int max_attempts = 1;  // 1 = no retry
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  double multiplier = 2.0;
  double jitter = 0.2;

  /// The paper-style default for soft-state senders and chaos tests.
  static RetryPolicy Standard() {
    RetryPolicy p;
    p.max_attempts = 4;
    return p;
  }
};

struct ClientOptions {
  gsi::Credential credential;           // empty DN = anonymous
  LinkModel link = LinkModel::Loopback();

  /// The client's endpoint identity on the fabric — what the fault
  /// injector keys partitions/blackouts on. Default "client".
  std::string identity = "client";

  /// Per-call deadline; zero = wait forever (the pre-resilience
  /// behavior). When it expires the call fails with TIMEOUT.
  std::chrono::milliseconds call_timeout{0};

  RetryPolicy retry;

  /// Seed for the backoff jitter stream (deterministic chaos tests).
  uint64_t retry_seed = 0x5ca1ab1e;

  /// When set, the client counts rpc_client_retries_total,
  /// rpc_client_timeouts_total and rpc_client_reconnects_total here.
  /// The registry must outlive the client.
  obs::Registry* metrics = nullptr;

  /// First request id issued (test hook for exercising the id-wrap
  /// path; ids are monotonic and skip 0 when the counter wraps).
  uint32_t first_request_id = 1;
};

namespace detail {

/// Shared completion state behind one Future. The issuing thread, the
/// delivering thread, and any number of waiters coordinate through it.
struct CallState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  rlscommon::Status status = rlscommon::Status::Ok();
  std::string response;
  std::vector<std::function<void(const rlscommon::Status&, const std::string&)>>
      callbacks;
  bool has_deadline = false;
  rlscommon::TimePoint deadline{};
  std::string target;  // server address, for timeout messages
};

struct DeliveryGate;  // rpc.cpp

}  // namespace detail

/// Handle to one in-flight RPC issued with RpcClient::BeginCall. Copyable
/// (all copies share the call). Completion is one of: the matching
/// response arrived, the connection it was issued on retired
/// (UNAVAILABLE), or the send itself failed.
class Future {
 public:
  Future() = default;

  /// False for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }

  /// True once the call completed (response, error, or retired
  /// connection). Wait() will not block.
  bool done() const;

  /// Blocks until completion or the call deadline (ClientOptions::
  /// call_timeout, measured from BeginCall). On success copies the
  /// response payload out; on deadline expiry returns TIMEOUT (the call
  /// stays in flight — a late response is discarded by id/epoch).
  rlscommon::Status Wait(std::string* response = nullptr);

  /// Registers a completion callback, or runs it right now if the call
  /// already completed. It runs on the thread that completes the call:
  /// the one that delivers the reply (the TCP receiver thread or,
  /// in-process, the server thread that sent it), the one whose close
  /// failed the call, or the issuer if the send failed. It must not
  /// block or close its own client; it may issue follow-up BeginCalls.
  void Then(std::function<void(const rlscommon::Status&, const std::string&)> fn);

 private:
  friend class RpcClient;
  explicit Future(std::shared_ptr<detail::CallState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CallState> state_;
};

/// Async RPC client with a blocking facade.
///
/// The core is BeginCall(opcode, payload) -> Future: requests pipeline
/// on one multiplexed connection (many outstanding request ids), and
/// each reply is matched to its future by id on the thread that
/// delivers it. In-process, that is the server thread that sent the
/// reply (Connection::DeliverTo), so a call wakes no client thread but
/// its waiter; over TCP, a per-connection receiver thread reads the
/// socket and feeds the same routine.
/// The classic blocking Call() is a thin retry loop over
/// BeginCall().Wait(), so every existing call site keeps its semantics
/// while benches drive the async path for true server-saturation runs.
///
/// Error taxonomy of Call():
///   UNAVAILABLE — could not reach the server (no listener, connection
///                 closed/refused, forced disconnect); retryable.
///   TIMEOUT     — no response within call_timeout; retryable.
///   PROTOCOL    — the server answered with a malformed frame; NOT
///                 retryable (garbled data won't unscramble itself).
///   anything else — the server's own application Status, verbatim.
/// Retryable failures are retried per ClientOptions::retry, reconnecting
/// (and re-authenticating) as needed between attempts. BeginCall itself
/// never retries: a pipelined caller owns its own retry policy.
///
/// Request-id lifecycle: ids are monotonic across the client's lifetime
/// (never reset on reconnect) and skip 0 on wrap. Every pending call is
/// tagged with the connection epoch it was issued on; responses arriving
/// from a retired connection are discarded, so a late reply can never
/// complete a different call that reused its id.
///
/// Thread-safe: calls may be issued concurrently from many threads. No
/// completion callback runs under the client's locks.
class RpcClient {
 public:
  /// Connects and completes the AUTH handshake. A connect failure is
  /// UNAVAILABLE (retried here per the policy too).
  static rlscommon::Status Connect(Transport* network, const std::string& address,
                                   const ClientOptions& options,
                                   std::unique_ptr<RpcClient>* out);

  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issues one call without waiting: connects if needed, assigns a
  /// request id, sends, and returns the Future tracking the response.
  /// Connect/send failures come back as an already-completed Future.
  Future BeginCall(uint16_t opcode, const std::string& request);

  /// Issues one call and waits for its response. Server-side failures
  /// come back as the server's Status; see the taxonomy above.
  rlscommon::Status Call(uint16_t opcode, const std::string& request,
                         std::string* response);

  /// Closes the connection and fails all in-flight futures UNAVAILABLE.
  /// Waits for a callback already running on another thread, so none of
  /// this client's callbacks runs once it returns (a later call
  /// reconnects).
  void Close();

  uint64_t bytes_sent() const;

  /// Transport-level retries performed over this client's lifetime.
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight call: the completion state plus the connection epoch
  /// it was issued on (responses are only matched within their epoch).
  struct PendingCall {
    uint64_t epoch = 0;
    std::shared_ptr<detail::CallState> state;
  };

  /// One connection epoch: the connection and, where the transport
  /// cannot deliver on the sender's thread (TCP), the receiver thread
  /// that reads it.
  struct Link {
    uint64_t epoch = 0;
    std::shared_ptr<Connection> conn;
    std::thread receiver;
  };

  RpcClient(Transport* network, std::string address, ClientOptions options);

  /// (Re)establishes the connection + AUTH handshake if needed. A closed
  /// link it replaces goes to `*stale`, for the caller to Retire once it
  /// has released mu_. Caller holds mu_.
  rlscommon::Status EnsureConnectedLocked(Link* stale);

  /// Takes the current link out of the client. Caller holds mu_.
  Link DetachLocked();

  /// Closes a detached link, joins its receiver thread and fails its
  /// epoch's calls UNAVAILABLE. Caller must not hold mu_: those calls'
  /// callbacks run here and may issue follow-up BeginCalls.
  void Retire(Link link);

  /// The one reply path: the connection feeds it on the sender's thread
  /// (in-process) or the link's receiver thread does (TCP). Only the
  /// live epoch's deliveries get through, counted for Close().
  Receiver ReceiverFor(uint64_t epoch);
  void OnReply(uint64_t epoch, Message msg);

  /// Registers `state` as a call on `epoch` and assigns its id; false if
  /// that epoch's calls were already failed (its close notice ran).
  bool AddPending(uint64_t epoch, std::shared_ptr<detail::CallState> state,
                  uint32_t* request_id);
  /// Fails `epoch`'s calls with ConnectionClosed().
  void FailPendingForEpoch(uint64_t epoch);
  rlscommon::Status ConnectionClosed() const;

  /// Monotonic id allocator; skips 0 on wrap. Caller holds pending_mu_.
  uint32_t NextRequestIdLocked();

  rlscommon::Duration NextBackoff(int attempt);

  Transport* network_;
  std::string address_;
  ClientOptions options_;

  // Connection lifecycle (serialized reconnects).
  mutable std::mutex mu_;
  rlscommon::Xoshiro256 jitter_rng_;     // guarded by mu_
  Link link_;                            // guarded by mu_
  uint64_t epoch_ = 0;                   // guarded by mu_
  bool ever_connected_ = false;          // guarded by mu_
  bool destroying_ = false;              // guarded by mu_: never reconnect
  uint64_t bytes_sent_prior_ = 0;        // guarded by mu_
  // Receiver threads that retired their own link from a callback; they
  // cannot join themselves, so Close() joins them. Guarded by mu_.
  std::vector<std::thread> parked_;

  // Shared with every receiver, so a delivery that outlives its epoch
  // finds it and is dropped.
  std::shared_ptr<detail::DeliveryGate> gate_;

  // In-flight calls, shared with the delivering threads.
  std::mutex pending_mu_;
  std::map<uint32_t, PendingCall> pending_;
  uint32_t next_request_id_;     // guarded by pending_mu_
  uint64_t failed_through_ = 0;  // guarded by pending_mu_; epochs <= it failed

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace net
