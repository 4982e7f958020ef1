// TCP implementation of the transport seam: blocking sockets driven by
// the threads that already wait on each connection. The one thread that
// calls Recv reads the socket and reassembles frames; every Send writes
// its frame on the caller's thread under a per-connection write lock.
// Each listener has one accept thread. There is no event loop, so a
// call wakes only the server thread that reads the request and the
// client thread that reads the reply.
//
// Batching: a Send made while the connection's reader still holds whole
// frames it has not returned (a pipelined burst) is appended to a
// pending buffer instead of written. The reader writes that buffer in
// one send before it returns its last buffered frame or blocks, and
// Close() flushes it, so the replies to a burst of N requests answered
// in turn go out in two writes, not N.
//
// Wire format (little-endian, see EncodeFrame):
//   u32 frame_length                    -- bytes after this field
//   u32 request_id  u16 opcode  u8 flags  u64 trace_id  u64 span_id
//   payload[frame_length - 23]
//
// The first frame on every connection is a HELLO preamble instead
// (EncodeHello): magic "RLSH", version, the client's fault-injection
// identity, and its LinkModel (rtt_us, bandwidth_bps). That gives the
// server side the same (local, peer) identity pair and reply-direction
// pacing the in-process fabric gets for free, so FaultInjector
// scenarios and LinkModel shaping behave identically on both
// transports. The server side parses the HELLO on its first Recv, so a
// peer that never sends one holds up only its own connection thread;
// replies sent before that first Recv carry no identity or pacing.
//
// Addresses: "tcp://host:port" binds/connects literally (the
// multi-process path). Any other string is a *logical* name — the
// listener binds an ephemeral port on `bind_host` and registers
// name -> "ip:port" in an in-process resolver, so tests and benches
// written against logical addresses ("lrc:fig6") run unmodified.
// ListenAddress() exposes the resolved "ip:port" for handing to a
// second process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/transport.h"

namespace net {

struct TcpOptions {
  /// Interface logical-name listeners bind on.
  std::string bind_host = "127.0.0.1";
  /// Each socket's SO_SNDBUF (the kernel caps it at net.core.wmem_max):
  /// Send() blocks in the kernel once the peer stops reading and this
  /// much is unsent.
  std::size_t write_buffer_limit = 4 * 1024 * 1024;
  /// Frames beyond this are a protocol violation (connection dropped).
  std::size_t max_frame_bytes = 64 * 1024 * 1024;
};

/// Frame codec, exposed for tests (torn-frame reassembly) and docs.
void EncodeFrame(const Message& msg, std::string* out);
bool DecodeFrameBody(std::string_view body, Message* out);
void EncodeHello(const std::string& identity, const LinkModel& link,
                 std::string* out);
bool DecodeHelloBody(std::string_view body, std::string* identity,
                     LinkModel* link);

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(
      TcpOptions options = {},
      rlscommon::Clock* clock = rlscommon::SystemClock::Instance());
  ~TcpTransport() override;

  rlscommon::Status Listen(const std::string& address,
                           AcceptHandler on_accept) override;
  void StopListening(const std::string& address) override;
  rlscommon::Status Connect(const std::string& address, const LinkModel& link,
                            ConnectionPtr* out,
                            const std::string& local_identity = "client") override;
  std::string ListenAddress(const std::string& address) const override;
  FaultInjector* EnableFaultInjection(uint64_t seed) override;
  FaultInjector* faults() override;
  rlscommon::Clock* clock() override { return clock_; }

 private:
  struct Listener;

  void AcceptLoop(Listener* listener);

  const TcpOptions options_;
  rlscommon::Clock* const clock_;

  mutable std::mutex mu_;
  std::unique_ptr<FaultInjector> faults_;
  std::map<std::string, std::unique_ptr<Listener>> listeners_;  // by name
};

}  // namespace net
