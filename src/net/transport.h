// The transport seam: one abstract Transport/Connection pair with two
// implementations selectable by URI scheme.
//
//   inproc://  InProcTransport — the in-process fabric with link
//              modeling. Each message charges (propagation = RTT/2) +
//              (serialization = bytes / bandwidth) before delivery,
//              blocking the sender the way a TCP send of that size
//              effectively would for these request/response protocols
//              (the paper's 100 Mbit/s LAN and LA<->Chicago WAN with
//              63.8 ms mean RTT, §5). A receiver registered with
//              DeliverTo gets each message on the sender's thread, so
//              an RPC reply needs no thread of the client's to wake.
//   tcp://     TcpTransport (tcp_transport.h) — real sockets read and
//              written by the threads that already wait on each
//              connection: length-prefixed frames, kernel send-buffer
//              backpressure, no event loop. The LinkModel degrades to
//              an egress pacing shim there.
//
// Servers Listen() on string addresses, clients Connect() with a chosen
// LinkModel; everything above the seam (RpcServer, RpcClient, the rls
// layer, benches, chaos tests) runs unmodified on either implementation.
// MakeTransport() picks the implementation from a URI.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/error.h"
#include "net/fault.h"

namespace net {

/// One framed message. `opcode` dispatches; `flags` marks responses and
/// errors; `request_id` matches responses to calls. `trace_id`/`span_id`
/// carry the trace context of the originating client operation in the
/// frame header (common/trace_context.h); 0 = untraced.
struct Message {
  static constexpr uint8_t kFlagResponse = 1;
  static constexpr uint8_t kFlagError = 2;

  uint32_t request_id = 0;
  uint16_t opcode = 0;
  uint8_t flags = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  std::string payload;

  std::size_t WireBytes() const { return 32 + payload.size(); }  // header + body
  bool is_response() const { return flags & kFlagResponse; }
  bool is_error() const { return flags & kFlagError; }
};

/// Latency/bandwidth model of one direction of a link.
struct LinkModel {
  std::chrono::microseconds rtt{0};
  double bandwidth_bps = 0.0;  // 0 = infinite

  /// One-way delay for a message of `bytes`.
  rlscommon::Duration DelayFor(std::size_t bytes) const {
    auto delay = std::chrono::duration_cast<rlscommon::Duration>(rtt) / 2;
    if (bandwidth_bps > 0) {
      const double seconds = static_cast<double>(bytes) * 8.0 / bandwidth_bps;
      delay += std::chrono::duration_cast<rlscommon::Duration>(
          std::chrono::duration<double>(seconds));
    }
    return delay;
  }

  /// The paper's testbeds.
  static LinkModel Loopback() { return LinkModel{}; }
  static LinkModel Lan100Mbit() {
    return LinkModel{std::chrono::microseconds(200), 100e6};
  }
  static LinkModel WanLaToChicago() {
    // Mean RTT 63.8 ms (paper §5.5); ~2004 transcontinental throughput.
    return LinkModel{std::chrono::microseconds(63800), 10e6};
  }
};

/// Leaky-bucket rate limiter modeling a shared resource (e.g. a server's
/// inbound NIC): concurrent senders share `bytes_per_sec`, so aggregate
/// demand beyond the capacity stretches everyone's transfer time — the
/// mechanism behind the paper's Fig. 13 (client update times rise once
/// more than ~7 LRCs send continuous Bloom updates).
class RateLimiter {
 public:
  RateLimiter(double bytes_per_sec, rlscommon::Clock* clock)
      : bytes_per_sec_(bytes_per_sec), clock_(clock) {}

  /// Blocks until `bytes` may pass; admission is serialized at the
  /// configured rate.
  void Acquire(std::size_t bytes);

 private:
  double bytes_per_sec_;
  rlscommon::Clock* clock_;
  std::mutex mu_;
  rlscommon::TimePoint next_free_{};
};

/// Where a connection hands its incoming traffic when it delivers on the
/// sender's thread (Connection::DeliverTo).
struct Receiver {
  std::function<void(Message)> on_message;  // each message
  std::function<void()> on_closed;          // the close, exactly once
};

/// Unbounded MPSC-ish message queue with shutdown: one direction of an
/// in-process connection. It never sheds; load shedding is RpcServer's
/// bounded wait for an execution slot (DESIGN.md §9).
class MessageQueue {
 public:
  /// Enqueues, or with a receiver set hands `msg` to it on this thread;
  /// returns false after Close().
  bool Push(Message msg);

  /// Routes every later Push to `receiver.on_message` and the close to
  /// `receiver.on_closed`, each run on the pushing or closing thread
  /// outside the queue's lock. False, changing nothing, if the queue is
  /// closed or holds messages.
  bool SetReceiver(Receiver receiver);

  /// Blocks for the next message. Returns Unavailable after Close() once
  /// drained.
  rlscommon::Status Pop(Message* out);

  /// Refuses later pushes, wakes Pop, then runs the receiver's close
  /// notice if this call closed the queue.
  void Close();
  bool closed() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
  Receiver receiver_;  // set once, before any push; empty = queue for Pop
};

/// One endpoint of an established connection — the abstract half of the
/// transport seam. `local`/`peer` are the endpoint identities the fault
/// injector keys on (the listener address for the server side; the
/// client's chosen identity, default "client", for the client side).
///
/// Send/Recv semantics every implementation honors:
///   * Send charges any link delay / pacing before returning, returns
///     Unavailable once the connection is closed, and reports OK for
///     injected drops (like a lost datagram, the sender only finds out
///     via its RPC deadline);
///   * Recv blocks for the next message and returns Unavailable after
///     close once buffered messages are drained (a half-closed TCP peer
///     still gets the messages that were in flight);
///   * Close is idempotent and wakes pending Recv calls;
///   * at most one thread reads a connection (Recv); any number
///     of threads may Send on it;
///   * a connection that DeliverTo accepted is not read at all: the
///     peer's Send runs the receiver itself (below).
class Connection {
 public:
  Connection(LinkModel link, std::string peer, std::string local)
      : link_(link), peer_(std::move(peer)), local_(std::move(local)) {}
  virtual ~Connection() = default;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  virtual rlscommon::Status Send(Message msg) = 0;
  virtual rlscommon::Status Recv(Message* out) = 0;
  virtual void Close() = 0;
  virtual bool closed() const = 0;

  /// Asks for direct delivery: from now on each message the peer sends
  /// is handed to `receiver.on_message` on the peer's sending thread,
  /// after that Send's fault-injection, link-delay and inbound-limit
  /// steps, and the close (by either side) reaches `receiver.on_closed`
  /// exactly once, on the closing thread. Neither runs under a lock of
  /// the connection, and deliveries from different senders may overlap;
  /// Close does not wait for them. Register before anything is sent.
  /// Returns false, changing nothing, where the transport cannot (TCP
  /// reads a socket) or the connection already closed or holds
  /// messages; the caller then reads the connection with Recv.
  virtual bool DeliverTo(Receiver receiver) {
    (void)receiver;
    return false;
  }

  const std::string& peer() const { return peer_; }
  const std::string& local() const { return local_; }
  const LinkModel& link() const { return link_; }

  uint64_t bytes_sent() const { return bytes_sent_.load(std::memory_order_relaxed); }
  uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }

 protected:
  LinkModel link_;
  std::string peer_;
  std::string local_;
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> messages_sent_{0};
};

using ConnectionPtr = std::unique_ptr<Connection>;

/// The fabric half of the seam: maps string addresses
/// ("rli.chicago:39281", "tcp://127.0.0.1:39281") to listeners.
class Transport {
 public:
  virtual ~Transport() = default;

  using AcceptHandler = std::function<void(ConnectionPtr)>;

  /// Registers a listener. AlreadyExists if the address is taken. The
  /// handler may be invoked from an internal transport thread.
  virtual rlscommon::Status Listen(const std::string& address,
                                   AcceptHandler on_accept) = 0;

  /// Removes a listener (existing connections keep working until closed).
  virtual void StopListening(const std::string& address) = 0;

  /// Establishes a connection to `address`. NotFound if nothing listens
  /// there; Unavailable if the fault injector refuses it.
  /// `local_identity` names the client side for fault targeting
  /// (partition pairs, blackouts).
  virtual rlscommon::Status Connect(const std::string& address,
                                    const LinkModel& link, ConnectionPtr* out,
                                    const std::string& local_identity = "client") = 0;

  /// Caps the aggregate inbound byte rate of one listener (models the
  /// server's NIC / access link). Only the in-process transport models
  /// this; the default is a no-op — on TCP the kernel's own flow control
  /// applies instead.
  virtual void SetInboundCapacity(const std::string& address,
                                  double bytes_per_sec) {
    (void)address;
    (void)bytes_per_sec;
  }

  /// The concrete endpoint a listener is reachable at — "ip:port" for
  /// TCP listeners (ephemeral-port resolution); the address itself for
  /// the in-process fabric. Empty if nothing listens on `address`.
  virtual std::string ListenAddress(const std::string& address) const {
    return address;
  }

  /// Installs a seeded fault injector on the fabric. Call before
  /// establishing connections (existing connections keep running
  /// fault-free). Returns the injector for scenario scripting; the
  /// transport owns it. Idempotent: a second call returns the existing
  /// injector and ignores the seed.
  virtual FaultInjector* EnableFaultInjection(uint64_t seed) = 0;

  /// The installed injector, or nullptr.
  virtual FaultInjector* faults() = 0;

  virtual rlscommon::Clock* clock() = 0;
};

/// In-process transport: message queues stitched into bidirectional
/// pipes, with link modeling and the Fig. 13 inbound-capacity limiter.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(
      rlscommon::Clock* clock = rlscommon::SystemClock::Instance())
      : clock_(clock) {}

  rlscommon::Status Listen(const std::string& address,
                           AcceptHandler on_accept) override;
  void StopListening(const std::string& address) override;
  rlscommon::Status Connect(const std::string& address, const LinkModel& link,
                            ConnectionPtr* out,
                            const std::string& local_identity = "client") override;
  void SetInboundCapacity(const std::string& address,
                          double bytes_per_sec) override;
  FaultInjector* EnableFaultInjection(uint64_t seed) override;
  FaultInjector* faults() override { return faults_.get(); }
  rlscommon::Clock* clock() override { return clock_; }

 private:
  rlscommon::Clock* clock_;
  std::unique_ptr<FaultInjector> faults_;
  mutable std::mutex mu_;
  std::map<std::string, AcceptHandler> listeners_;
  std::map<std::string, std::shared_ptr<RateLimiter>> inbound_limits_;
};

/// In-process connection endpoint (one direction of queues each way).
class InProcConnection final : public Connection {
 public:
  InProcConnection(std::shared_ptr<MessageQueue> incoming,
                   std::shared_ptr<MessageQueue> outgoing, LinkModel link,
                   rlscommon::Clock* clock, std::string peer,
                   std::shared_ptr<RateLimiter> peer_inbound = nullptr,
                   std::string local = "client", FaultInjector* faults = nullptr);
  ~InProcConnection() override { Close(); }

  rlscommon::Status Send(Message msg) override;
  rlscommon::Status Recv(Message* out) override;
  void Close() override;

  /// Sets the receiver on the inbound queue, which the peer pushes into.
  bool DeliverTo(Receiver receiver) override {
    return incoming_->SetReceiver(std::move(receiver));
  }

  /// True once either side closed the connection (both queues close
  /// together, so checking the inbound one suffices).
  bool closed() const override { return incoming_->closed(); }

 private:
  std::shared_ptr<MessageQueue> incoming_;
  std::shared_ptr<MessageQueue> outgoing_;
  rlscommon::Clock* clock_;
  std::shared_ptr<RateLimiter> peer_inbound_;  // shared capacity at the peer
  FaultInjector* faults_;  // nullable; owned by the transport
};

/// Transport factory by URI scheme: "inproc://..." (or a bare name)
/// builds an InProcTransport; "tcp://host" builds a TcpTransport bound
/// to `host` (default 127.0.0.1). Returns nullptr for an unknown
/// scheme. The RLS_TRANSPORT environment variable conventionally feeds
/// this so one binary runs on either stack.
std::unique_ptr<Transport> MakeTransport(
    const std::string& uri,
    rlscommon::Clock* clock = rlscommon::SystemClock::Instance());

}  // namespace net
