#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <thread>

#include "net/serialize.h"

namespace net {

using rlscommon::Status;

namespace {

constexpr uint32_t kHelloMagic = 0x48534C52;  // "RLSH" little-endian
constexpr uint16_t kHelloVersion = 1;
// Fixed frame header past the length prefix: request_id(4) opcode(2)
// flags(1) trace_id(8) span_id(8).
constexpr std::size_t kFrameHeaderBytes = 23;

std::string LastErrno() { return std::string(std::strerror(errno)); }

bool ParseHostPort(std::string_view hp, std::string* host, uint16_t* port) {
  const std::size_t colon = hp.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  const std::string_view digits = hp.substr(colon + 1);
  if (digits.empty()) return false;
  uint32_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) return false;
  }
  *host = std::string(hp.substr(0, colon));
  *port = static_cast<uint16_t>(value);
  return true;
}

Status FillSockaddr(const std::string& host, uint16_t port, sockaddr_in* sa) {
  std::memset(sa, 0, sizeof(*sa));
  sa->sin_family = AF_INET;
  sa->sin_port = htons(port);
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &sa->sin_addr) != 1) {
    return Status::Protocol("not an IPv4 address: " + host);
  }
  return Status::Ok();
}

/// Per-socket settings shared by both ends: no Nagle delay for small
/// frames, and the kernel send buffer is the write backpressure bound.
void ConfigureSocket(int fd, std::size_t write_buffer_limit) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int sndbuf =
      static_cast<int>(std::min<std::size_t>(write_buffer_limit, INT_MAX));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
}

/// Writes all of `data`; false on a socket error (or EAGAIN under
/// MSG_DONTWAIT).
bool SendAll(int fd, std::string_view data, int flags) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL | flags);
    if (n > 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

void EncodeFrame(const Message& msg, std::string* out) {
  Writer w(out);
  w.U32(static_cast<uint32_t>(kFrameHeaderBytes + msg.payload.size()));
  w.U32(msg.request_id);
  w.U16(msg.opcode);
  w.U8(msg.flags);
  w.U64(msg.trace_id);
  w.U64(msg.span_id);
  w.Raw(msg.payload);
}

bool DecodeFrameBody(std::string_view body, Message* out) {
  Reader r(body);
  if (!r.U32(&out->request_id) || !r.U16(&out->opcode) || !r.U8(&out->flags) ||
      !r.U64(&out->trace_id) || !r.U64(&out->span_id)) {
    return false;
  }
  out->payload.assign(r.Rest());
  return true;
}

void EncodeHello(const std::string& identity, const LinkModel& link,
                 std::string* out) {
  std::string body;
  Writer w(&body);
  w.U32(kHelloMagic);
  w.U16(kHelloVersion);
  w.Str(identity);
  w.U64(static_cast<uint64_t>(link.rtt.count()));
  w.F64(link.bandwidth_bps);
  Writer f(out);
  f.U32(static_cast<uint32_t>(body.size()));
  f.Raw(body);
}

bool DecodeHelloBody(std::string_view body, std::string* identity,
                     LinkModel* link) {
  Reader r(body);
  uint32_t magic;
  uint16_t version;
  uint64_t rtt_us;
  double bandwidth_bps;
  if (!r.U32(&magic) || magic != kHelloMagic) return false;
  if (!r.U16(&version) || version != kHelloVersion) return false;
  if (!r.Str(identity)) return false;
  if (!r.U64(&rtt_us) || !r.F64(&bandwidth_bps)) return false;
  link->rtt = std::chrono::microseconds(rtt_us);
  link->bandwidth_bps = bandwidth_bps;
  return r.AtEnd();
}

/// One connected socket. Recv runs on the connection's one reading
/// thread, which owns the read buffer; Send runs on any thread and
/// writes under `write_mu_`. Send() keeps the same fault-injection and
/// LinkModel pacing decision points as the in-process connection.
class TcpConnection final : public Connection {
 public:
  /// `server_side`: the first frame to arrive is the peer's HELLO, which
  /// sets peer() and link().
  TcpConnection(int fd, LinkModel link, std::string peer, std::string local,
                bool server_side, std::size_t max_frame_bytes,
                rlscommon::Clock* clock, FaultInjector* faults)
      : Connection(link, std::move(peer), std::move(local)),
        fd_(fd),
        max_frame_bytes_(max_frame_bytes),
        clock_(clock),
        faults_(faults),
        hello_pending_(server_side) {}

  ~TcpConnection() override {
    Close();
    ::close(fd_);
  }

  Status Send(Message msg) override {
    const std::size_t bytes = msg.WireBytes();
    if (kFrameHeaderBytes + msg.payload.size() > max_frame_bytes_) {
      return Status::Protocol("frame exceeds max_frame_bytes");
    }
    rlscommon::Duration delay = link_.DelayFor(bytes);
    SendVerdict verdict = SendVerdict::kDeliver;
    if (faults_) {
      const uint64_t index = messages_sent_.load(std::memory_order_relaxed) + 1;
      verdict = faults_->OnSend(local_, peer_, index, &delay);
    }
    if (verdict == SendVerdict::kDisconnect) {
      Close();
      return Status::Unavailable("fault: forced disconnect from " + peer_);
    }
    if (delay > rlscommon::Duration::zero()) clock_->SleepFor(delay);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    // A dropped message still charged the link and counts as sent — the
    // sender cannot tell; its RPC deadline will.
    if (verdict == SendVerdict::kDrop) return Status::Ok();
    std::string frame;
    EncodeFrame(msg, &frame);
    std::lock_guard<std::mutex> lock(write_mu_);
    if (shut_) return Status::Unavailable("connection closed to " + peer_);
    if (batching_) {
      pending_.append(frame);  // the reader writes it with the burst
      return Status::Ok();
    }
    if (!SendAll(fd_, frame, 0)) {
      const std::string why = LastErrno();
      Shut();
      return Status::Unavailable("connection to " + peer_ + " lost: " + why);
    }
    return Status::Ok();
  }

  Status Recv(Message* out) override { return Read(out); }

  /// Writes what the batch deferred (best effort: a writer blocked on a
  /// peer that stopped reading holds the lock, and is woken instead),
  /// then shuts both directions down, which wakes a blocked recv or
  /// send. The fd itself closes in the destructor, so no other thread
  /// can reach a reused descriptor.
  void Close() override {
    {
      std::unique_lock<std::mutex> lock(write_mu_, std::try_to_lock);
      if (lock.owns_lock() && !shut_) {
        SendAll(fd_, pending_, MSG_DONTWAIT);
        pending_.clear();
      }
    }
    Shut();
  }

  bool closed() const override { return shut_ || read_closed_; }

 private:
  /// Makes Send fail from now on and wakes the blocked reader and
  /// writer. Safe under write_mu_.
  void Shut() {
    if (!shut_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
  }

  /// True if the frame starting at rpos_ is all buffered; `len` gets its
  /// body length once the 4-byte prefix is.
  bool WholeFrameBuffered(uint32_t* len) const {
    if (rbuf_.size() - rpos_ < 4) return false;
    std::memcpy(len, rbuf_.data() + rpos_, 4);
    return rbuf_.size() - rpos_ - 4 >= *len;
  }

  /// The reader's half of the batching rule: while more whole frames
  /// wait in the read buffer, Send defers; once none do, the deferred
  /// frames go out in one write.
  void SetBatching(bool more) {
    if (more == batching_seen_) return;  // only the reader changes it
    batching_seen_ = more;
    std::lock_guard<std::mutex> lock(write_mu_);
    batching_ = more;
    if (more || pending_.empty()) return;
    if (!shut_ && !SendAll(fd_, pending_, 0)) Shut();
    pending_.clear();
  }

  /// Drops a peer that broke the framing; nothing it sent after the
  /// violation is ever returned.
  Status Violation(const char* what) {
    rbuf_.clear();
    rpos_ = 0;
    read_closed_ = true;
    Shut();
    return Status::Unavailable(std::string("dropped ") + peer_ + ": " + what);
  }

  Status Read(Message* out) {
    for (;;) {
      uint32_t len = 0;
      const bool whole = WholeFrameBuffered(&len);
      if (len > max_frame_bytes_) return Violation("frame exceeds max_frame_bytes");
      if (whole) {
        const std::string_view body(rbuf_.data() + rpos_ + 4, len);
        rpos_ += 4 + static_cast<std::size_t>(len);
        if (hello_pending_) {
          // The HELLO names the peer and its link model, so the server
          // side gets the same fault identities and reply-direction
          // pacing the in-process fabric builds in.
          if (!DecodeHelloBody(body, &peer_, &link_)) return Violation("bad hello");
          hello_pending_ = false;
          continue;
        }
        if (len < kFrameHeaderBytes || !DecodeFrameBody(body, out)) {
          return Violation("malformed frame");
        }
        SetBatching(WholeFrameBuffered(&len));
        return Status::Ok();
      }
      // No whole frame left: flush the burst's replies before blocking.
      SetBatching(false);
      rbuf_.erase(0, rpos_);
      rpos_ = 0;
      if (read_closed_) return Status::Unavailable("connection closed by " + peer_);
      char chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        rbuf_.append(chunk, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        // EOF (the peer's half-close, or our own Close) or a reset. The
        // write side stays up until Close(): replies still owed to a
        // half-closed peer go out.
        read_closed_ = true;
      }
    }
  }

  const int fd_;
  const std::size_t max_frame_bytes_;
  rlscommon::Clock* const clock_;
  FaultInjector* const faults_;  // nullable; owned by the transport

  // Reader-thread-only state.
  std::string rbuf_;
  std::size_t rpos_ = 0;  // start of the first unreturned frame
  bool hello_pending_;
  bool batching_seen_ = false;  // the reader's copy of batching_

  std::mutex write_mu_;
  bool batching_ = false;  // guarded by write_mu_; set only by the reader
  std::string pending_;    // guarded by write_mu_; empty unless batching_

  std::atomic<bool> shut_{false};         // Close() or a failed write
  std::atomic<bool> read_closed_{false};  // EOF, reset or a framing violation
};

/// A listening socket and its accept thread.
struct TcpTransport::Listener {
  Listener(int listen_fd, std::string name, std::string endpoint,
           AcceptHandler on_accept)
      : fd(listen_fd),
        address(std::move(name)),
        ip_port(std::move(endpoint)),
        handler(std::move(on_accept)) {}

  ~Listener() {
    if (thread.joinable()) {
      // On Linux, shutting a listening socket down fails its blocked
      // accept.
      ::shutdown(fd, SHUT_RDWR);
      thread.join();
    }
    ::close(fd);
  }

  const int fd;
  const std::string address;  // the logical (or tcp://) listen name
  const std::string ip_port;  // resolved "ip:port" from getsockname
  const AcceptHandler handler;
  std::thread thread;
};

TcpTransport::TcpTransport(TcpOptions options, rlscommon::Clock* clock)
    : options_(std::move(options)), clock_(clock) {}

TcpTransport::~TcpTransport() {
  // Declared before the lock, so the accept threads join after it is
  // released (they take it for faults()).
  std::map<std::string, std::unique_ptr<Listener>> listeners;
  std::lock_guard<std::mutex> lock(mu_);
  listeners.swap(listeners_);
}

Status TcpTransport::Listen(const std::string& address, AcceptHandler on_accept) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (listeners_.count(address)) {
      return Status::AlreadyExists("address already in use: " + address);
    }
  }
  std::string host = options_.bind_host;
  uint16_t port = 0;  // logical names take an ephemeral port
  if (address.rfind("tcp://", 0) == 0) {
    if (!ParseHostPort(address.substr(6), &host, &port)) {
      return Status::Protocol("bad tcp listen address: " + address);
    }
  }
  sockaddr_in sa;
  Status filled = FillSockaddr(host, port, &sa);
  if (!filled.ok()) return filled;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Unavailable("socket: " + LastErrno());
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    const Status bound =
        errno == EADDRINUSE
            ? Status::AlreadyExists("address already in use: " + address)
            : Status::Unavailable("bind " + address + ": " + LastErrno());
    ::close(fd);
    return bound;
  }
  if (::listen(fd, 256) < 0) {
    const Status listening =
        Status::Unavailable("listen " + address + ": " + LastErrno());
    ::close(fd);
    return listening;
  }
  sockaddr_in actual;
  socklen_t len = sizeof(actual);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len);
  char ip[INET_ADDRSTRLEN] = "0.0.0.0";
  ::inet_ntop(AF_INET, &actual.sin_addr, ip, sizeof(ip));
  auto listener = std::make_unique<Listener>(
      fd, address, std::string(ip) + ":" + std::to_string(ntohs(actual.sin_port)),
      std::move(on_accept));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = listeners_.try_emplace(address, std::move(listener));
  if (!fresh) return Status::AlreadyExists("address already in use: " + address);
  Listener* accepting = it->second.get();
  accepting->thread = std::thread([this, accepting] { AcceptLoop(accepting); });
  return Status::Ok();
}

void TcpTransport::AcceptLoop(Listener* listener) {
  for (;;) {
    const int fd = ::accept4(listener->fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EINVAL || errno == EBADF) return;  // shut down
      // Out of descriptors or buffers: back off rather than spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    ConfigureSocket(fd, options_.write_buffer_limit);
    // The peer's identity and link model arrive in its HELLO, which the
    // connection's first Recv parses: a peer that never sends one
    // stalls only its own connection thread, never this accept loop.
    listener->handler(std::make_unique<TcpConnection>(
        fd, LinkModel{}, /*peer=*/"", /*local=*/listener->address,
        /*server_side=*/true, options_.max_frame_bytes, clock_, faults()));
  }
}

void TcpTransport::StopListening(const std::string& address) {
  std::unique_ptr<Listener> listener;  // joins its thread outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  auto it = listeners_.find(address);
  if (it == listeners_.end()) return;
  listener = std::move(it->second);
  listeners_.erase(it);
}

Status TcpTransport::Connect(const std::string& address, const LinkModel& link,
                             ConnectionPtr* out,
                             const std::string& local_identity) {
  FaultInjector* injector = faults();
  if (injector) {
    Status verdict = injector->OnConnect(local_identity, address);
    if (!verdict.ok()) return verdict;
  }
  std::string target;
  if (address.rfind("tcp://", 0) == 0) {
    target = address.substr(6);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listeners_.find(address);
    if (it == listeners_.end()) {
      return Status::NotFound("connection refused: " + address);
    }
    target = it->second->ip_port;
  }
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(target, &host, &port) || port == 0) {
    return Status::Protocol("bad tcp address: " + address);
  }
  sockaddr_in sa;
  Status filled = FillSockaddr(host, port, &sa);
  if (!filled.ok()) return filled;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Unavailable("socket: " + LastErrno());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    const Status refused = Status::NotFound("connection refused: " + address +
                                            " (" + LastErrno() + ")");
    ::close(fd);
    return refused;
  }
  ConfigureSocket(fd, options_.write_buffer_limit);
  // The client sends the HELLO and never expects one back.
  std::string hello;
  EncodeHello(local_identity, link, &hello);
  if (!SendAll(fd, hello, 0)) {
    const Status lost =
        Status::Unavailable("hello to " + address + " failed: " + LastErrno());
    ::close(fd);
    return lost;
  }
  *out = std::make_unique<TcpConnection>(fd, link, address, local_identity,
                                         /*server_side=*/false,
                                         options_.max_frame_bytes, clock_,
                                         injector);
  return Status::Ok();
}

std::string TcpTransport::ListenAddress(const std::string& address) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = listeners_.find(address);
  return it == listeners_.end() ? std::string() : it->second->ip_port;
}

FaultInjector* TcpTransport::EnableFaultInjection(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!faults_) faults_ = std::make_unique<FaultInjector>(seed, clock_);
  return faults_.get();
}

FaultInjector* TcpTransport::faults() {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_.get();
}

}  // namespace net
