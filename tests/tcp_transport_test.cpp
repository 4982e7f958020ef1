// TCP transport tests: the socket stack exercised at the wire level —
// torn-frame reassembly, half-close, write backpressure, Close() waking
// blocked readers and writers, bad HELLOs, and the reply batching of a
// reader that holds a burst of requests. The async client's suite runs
// on both transports in async_client_test.cpp.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "echo_server.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"

namespace net {
namespace {

using namespace std::chrono_literals;
using rlscommon::ErrorCode;
using rlscommon::Status;

// --- raw-socket helpers (the "other process" side of the wire) ---

/// Splits "ip:port" as printed by ListenAddress().
void SplitHostPort(const std::string& hp, std::string* host, uint16_t* port) {
  const auto colon = hp.rfind(':');
  ASSERT_NE(colon, std::string::npos) << hp;
  *host = hp.substr(0, colon);
  *port = static_cast<uint16_t>(std::stoul(hp.substr(colon + 1)));
}

/// Blocking connect to ip:port; returns the fd (fails the test on error).
/// Reads on it give up after 10 s, so a frame that never comes fails the
/// test instead of hanging it.
int ConnectRaw(const std::string& hp) {
  std::string host;
  uint16_t port = 0;
  SplitHostPort(hp, &host, &port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, host.c_str(), &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// A raw acceptor on an ephemeral loopback port. Its accepted sockets
/// read nothing unless the test does.
struct RawListener {
  RawListener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd, 4), 0);
    socklen_t addr_len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
    endpoint = "tcp://127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
  }
  ~RawListener() { ::close(fd); }

  int Accept() const { return ::accept(fd, nullptr, nullptr); }

  int fd = -1;
  std::string endpoint;
};

/// True if the peer closes `fd` (a read returns EOF) within `deadline`.
bool ReadsEof(int fd, std::chrono::milliseconds deadline) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, static_cast<int>(deadline.count())) != 1) return false;
  char byte;
  return ::recv(fd, &byte, 1, MSG_DONTWAIT) == 0;
}

/// Writes all of `data`, `chunk` bytes at a time (chunk 1 = torn frames).
void WriteAll(int fd, const std::string& data, std::size_t chunk) {
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - off);
    const ssize_t wrote = ::send(fd, data.data() + off, n, MSG_NOSIGNAL);
    ASSERT_GT(wrote, 0) << strerror(errno);
    off += static_cast<std::size_t>(wrote);
  }
}

/// Reads exactly `n` bytes; false on clean EOF at a frame boundary.
bool ReadExactly(int fd, std::size_t n, std::string* out) {
  out->resize(n);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t got = ::recv(fd, out->data() + off, n - off, 0);
    if (got <= 0) return false;
    off += static_cast<std::size_t>(got);
  }
  return true;
}

/// Reads one length-prefixed frame body off the socket.
bool ReadFrame(int fd, std::string* body) {
  std::string len_bytes;
  if (!ReadExactly(fd, 4, &len_bytes)) return false;
  uint32_t len = 0;
  std::memcpy(&len, len_bytes.data(), 4);
  return ReadExactly(fd, len, body);
}

/// A listener that queues every received message for inspection.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> messages;
  std::vector<ConnectionPtr> conns;  // kept alive for replies
  std::vector<std::thread> readers;

  Transport::AcceptHandler Handler() {
    return [this](ConnectionPtr conn) {
      std::lock_guard<std::mutex> lock(mu);
      conns.push_back(std::move(conn));
      Connection* c = conns.back().get();
      readers.emplace_back([this, c] {
        Message msg;
        while (c->Recv(&msg).ok()) {
          std::lock_guard<std::mutex> lock(mu);
          messages.push_back(std::move(msg));
          cv.notify_all();
        }
      });
    };
  }

  bool WaitForMessages(std::size_t count, std::chrono::milliseconds deadline) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, deadline,
                       [&] { return messages.size() >= count; });
  }

  ~Inbox() {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& conn : conns) conn->Close();
    }
    for (std::thread& t : readers) t.join();
  }
};

TEST(TcpCodec, FrameRoundTrip) {
  Message msg;
  msg.request_id = 0xdeadbeef;
  msg.opcode = 42;
  msg.flags = Message::kFlagResponse | Message::kFlagError;
  msg.trace_id = 0x1122334455667788ull;
  msg.span_id = 0x99aabbccddeeff00ull;
  msg.payload = std::string("hello\0world", 11);

  std::string wire;
  EncodeFrame(msg, &wire);
  uint32_t len = 0;
  std::memcpy(&len, wire.data(), 4);
  ASSERT_EQ(wire.size(), 4 + len);

  Message out;
  ASSERT_TRUE(DecodeFrameBody(std::string_view(wire).substr(4), &out));
  EXPECT_EQ(out.request_id, msg.request_id);
  EXPECT_EQ(out.opcode, msg.opcode);
  EXPECT_EQ(out.flags, msg.flags);
  EXPECT_EQ(out.trace_id, msg.trace_id);
  EXPECT_EQ(out.span_id, msg.span_id);
  EXPECT_EQ(out.payload, msg.payload);
}

TEST(TcpCodec, HelloRoundTrip) {
  LinkModel link;
  link.rtt = 1500us;
  link.bandwidth_bps = 100e6;
  std::string wire;
  EncodeHello("lrc-client-7", link, &wire);

  uint32_t len = 0;
  std::memcpy(&len, wire.data(), 4);
  ASSERT_EQ(wire.size(), 4 + len);

  std::string identity;
  LinkModel out;
  ASSERT_TRUE(
      DecodeHelloBody(std::string_view(wire).substr(4), &identity, &out));
  EXPECT_EQ(identity, "lrc-client-7");
  EXPECT_EQ(out.rtt, link.rtt);
  EXPECT_DOUBLE_EQ(out.bandwidth_bps, link.bandwidth_bps);

  // A garbage preamble is rejected, not misparsed.
  std::string bad = wire.substr(4);
  bad[0] ^= 0xff;
  EXPECT_FALSE(DecodeHelloBody(bad, &identity, &out));
}

TEST(TcpTransportTest, LogicalNameResolvesToRealEndpoint) {
  TcpTransport transport;
  Inbox inbox;
  ASSERT_TRUE(transport.Listen("rls://lrc0", inbox.Handler()).ok());

  const std::string resolved = transport.ListenAddress("rls://lrc0");
  ASSERT_FALSE(resolved.empty());
  EXPECT_NE(resolved.find(':'), std::string::npos);
  EXPECT_TRUE(transport.ListenAddress("rls://nobody").empty());

  // Both the logical name and the literal endpoint reach the listener.
  ConnectionPtr by_name, by_endpoint;
  ASSERT_TRUE(
      transport.Connect("rls://lrc0", LinkModel::Loopback(), &by_name).ok());
  ASSERT_TRUE(transport
                  .Connect("tcp://" + resolved, LinkModel::Loopback(),
                           &by_endpoint)
                  .ok());
  Message msg;
  msg.opcode = 7;
  msg.payload = "by-name";
  ASSERT_TRUE(by_name->Send(std::move(msg)).ok());
  msg = Message{};
  msg.opcode = 8;
  msg.payload = "by-endpoint";
  ASSERT_TRUE(by_endpoint->Send(std::move(msg)).ok());
  ASSERT_TRUE(inbox.WaitForMessages(2, 5000ms));

  // A connect to a never-registered logical name is refused.
  ConnectionPtr refused;
  EXPECT_EQ(
      transport.Connect("rls://nobody", LinkModel::Loopback(), &refused).code(),
      ErrorCode::kNotFound);
}

// Frames delivered one byte at a time reassemble into whole messages:
// the read state machine never assumes a frame arrives in one recv().
TEST(TcpTransportTest, TornFramesReassemble) {
  TcpTransport transport;
  Inbox inbox;
  ASSERT_TRUE(transport.Listen("torn", inbox.Handler()).ok());

  std::string wire;
  EncodeHello("torn-client", LinkModel{}, &wire);
  Message msg;
  msg.request_id = 11;
  msg.opcode = 3;
  msg.payload = "first torn frame";
  EncodeFrame(msg, &wire);
  msg.request_id = 12;
  msg.opcode = 4;
  msg.payload = std::string(3000, 'x');  // spans several TCP segments
  EncodeFrame(msg, &wire);

  const int fd = ConnectRaw(transport.ListenAddress("torn"));
  WriteAll(fd, wire, /*chunk=*/1);

  ASSERT_TRUE(inbox.WaitForMessages(2, 5000ms));
  std::lock_guard<std::mutex> lock(inbox.mu);
  EXPECT_EQ(inbox.messages[0].request_id, 11u);
  EXPECT_EQ(inbox.messages[0].payload, "first torn frame");
  EXPECT_EQ(inbox.messages[1].request_id, 12u);
  EXPECT_EQ(inbox.messages[1].payload, std::string(3000, 'x'));
  ::close(fd);
}

// A peer that shuts down its write side (half-close) still receives the
// replies already owed to it: read-EOF must not tear down the write
// direction.
TEST(TcpTransportTest, HalfCloseStillDeliversReplies) {
  TcpTransport transport;

  std::mutex mu;
  std::condition_variable cv;
  ConnectionPtr server_conn;
  ASSERT_TRUE(transport
                  .Listen("half",
                          [&](ConnectionPtr conn) {
                            std::lock_guard<std::mutex> lock(mu);
                            server_conn = std::move(conn);
                            cv.notify_all();
                          })
                  .ok());

  std::string wire;
  EncodeHello("half-client", LinkModel{}, &wire);
  Message msg;
  msg.request_id = 21;
  msg.opcode = 5;
  msg.payload = "question";
  EncodeFrame(msg, &wire);

  const int fd = ConnectRaw(transport.ListenAddress("half"));
  WriteAll(fd, wire, wire.size());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5000ms, [&] { return server_conn != nullptr; }));
  }

  Message got;
  ASSERT_TRUE(server_conn->Recv(&got).ok());
  EXPECT_EQ(got.payload, "question");

  // Client half-closes: no more requests will come...
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  // ...the server's receive side drains to closed...
  EXPECT_EQ(server_conn->Recv(&got).code(), ErrorCode::kUnavailable);
  // ...but a reply sent now still reaches the raw peer.
  Message reply;
  reply.request_id = 21;
  reply.flags = Message::kFlagResponse;
  reply.payload = "answer";
  ASSERT_TRUE(server_conn->Send(std::move(reply)).ok());

  std::string body;
  ASSERT_TRUE(ReadFrame(fd, &body));
  Message decoded;
  ASSERT_TRUE(DecodeFrameBody(body, &decoded));
  EXPECT_EQ(decoded.request_id, 21u);
  EXPECT_EQ(decoded.payload, "answer");

  server_conn->Close();
  // Full close follows: the raw peer sees EOF.
  EXPECT_FALSE(ReadFrame(fd, &body));
  ::close(fd);
}

// Send() blocks once the socket's send buffer (write_buffer_limit) is
// full because the peer has stopped reading, and unblocks as the peer
// drains it — bytes are never dropped or reordered.
TEST(TcpTransportTest, WriteBackpressureBlocksThenDrains) {
  // A raw acceptor that does NOT read: the peer's receive buffer fills,
  // then the socket's send buffer (write_buffer_limit), then Send() must
  // block.
  RawListener listener;
  TcpOptions options;
  options.write_buffer_limit = 256 * 1024;
  TcpTransport transport(options);
  ConnectionPtr conn;
  ASSERT_TRUE(
      transport.Connect(listener.endpoint, LinkModel::Loopback(), &conn).ok());
  const int peer = listener.Accept();
  ASSERT_GE(peer, 0);

  constexpr int kMessages = 32;
  const std::string payload(256 * 1024, 'b');  // 8 MiB total >> 256 KiB limit
  std::atomic<int> sent{0};
  std::thread sender([&] {
    for (int i = 0; i < kMessages; ++i) {
      Message msg;
      msg.request_id = static_cast<uint32_t>(i + 1);
      msg.payload = payload;
      ASSERT_TRUE(conn->Send(std::move(msg)).ok());
      sent.fetch_add(1);
    }
  });

  // With nobody reading, the sender cannot get anywhere near the end.
  std::this_thread::sleep_for(200ms);
  EXPECT_LT(sent.load(), kMessages) << "Send() never hit backpressure";

  // Drain: every frame arrives, in order, intact.
  std::string hello_body;
  ASSERT_TRUE(ReadFrame(peer, &hello_body));  // HELLO preamble first
  for (int i = 0; i < kMessages; ++i) {
    std::string body;
    ASSERT_TRUE(ReadFrame(peer, &body)) << "frame " << i;
    Message decoded;
    ASSERT_TRUE(DecodeFrameBody(body, &decoded));
    EXPECT_EQ(decoded.request_id, static_cast<uint32_t>(i + 1));
    EXPECT_EQ(decoded.payload.size(), payload.size());
  }
  sender.join();
  EXPECT_EQ(sent.load(), kMessages);
  conn->Close();
  ::close(peer);
}

// Close() from another thread wakes a Send blocked on a peer that has
// stopped reading: shutting the socket down fails the kernel write, and
// Send reports UNAVAILABLE instead of hanging.
TEST(TcpTransportTest, CloseWakesBlockedSend) {
  RawListener listener;
  TcpOptions options;
  options.write_buffer_limit = 64 * 1024;
  TcpTransport transport(options);
  ConnectionPtr conn;
  ASSERT_TRUE(
      transport.Connect(listener.endpoint, LinkModel::Loopback(), &conn).ok());
  const int peer = listener.Accept();
  ASSERT_GE(peer, 0);

  std::promise<Status> failed;
  std::future<Status> result = failed.get_future();
  std::thread sender([&] {
    const std::string payload(256 * 1024, 's');
    for (;;) {
      Message msg;
      msg.payload = payload;
      Status s = conn->Send(std::move(msg));
      if (!s.ok()) {
        failed.set_value(s);
        return;
      }
    }
  });
  // Nobody reads, so the sender soon blocks for good.
  EXPECT_EQ(result.wait_for(300ms), std::future_status::timeout);

  conn->Close();
  EXPECT_EQ(result.wait_for(1s), std::future_status::ready)
      << "Close() left Send blocked";
  ::close(peer);  // frees a sender that Close() did not wake
  sender.join();
  EXPECT_EQ(result.get().code(), ErrorCode::kUnavailable);
}

// Close() from another thread wakes a Recv waiting on a silent peer.
TEST(TcpTransportTest, CloseWakesBlockedRecv) {
  RawListener listener;
  TcpTransport transport;
  ConnectionPtr conn;
  ASSERT_TRUE(
      transport.Connect(listener.endpoint, LinkModel::Loopback(), &conn).ok());
  const int peer = listener.Accept();
  ASSERT_GE(peer, 0);

  std::promise<Status> received;
  std::future<Status> result = received.get_future();
  std::thread reader([&] {
    Message msg;
    received.set_value(conn->Recv(&msg));
  });
  EXPECT_EQ(result.wait_for(200ms), std::future_status::timeout);

  conn->Close();
  EXPECT_EQ(result.wait_for(1s), std::future_status::ready)
      << "Close() left Recv blocked";
  ::close(peer);  // frees a reader that Close() did not wake
  reader.join();
  EXPECT_EQ(result.get().code(), ErrorCode::kUnavailable);
}

// The server side of a connection whose HELLO is corrupt reports
// UNAVAILABLE from Recv and never yields a message, although a valid
// frame follows the bad preamble; the peer sees the socket close.
TEST(TcpTransportTest, GarbledHelloIsDropped) {
  std::mutex mu;
  std::condition_variable cv;
  ConnectionPtr server_conn;
  TcpTransport transport;
  ASSERT_TRUE(transport
                  .Listen("garbled",
                          [&](ConnectionPtr conn) {
                            std::lock_guard<std::mutex> lock(mu);
                            server_conn = std::move(conn);
                            cv.notify_all();
                          })
                  .ok());

  std::string wire;
  EncodeHello("garbler", LinkModel{}, &wire);
  wire[4] ^= 0xff;  // the magic's first byte
  Message msg;
  msg.request_id = 1;
  msg.payload = "smuggled";
  EncodeFrame(msg, &wire);
  const int fd = ConnectRaw(transport.ListenAddress("garbled"));
  WriteAll(fd, wire, wire.size());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return server_conn != nullptr; }));
  }

  Message got;
  EXPECT_EQ(server_conn->Recv(&got).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server_conn->Recv(&got).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(server_conn->closed());
  EXPECT_TRUE(ReadsEof(fd, 1000ms));
  ::close(fd);
}

// A reply deferred behind buffered frames still reaches the peer when
// the server closes right after answering: Close() writes the batch
// before it shuts the socket down.
TEST(TcpTransportTest, DeferredReplyFlushedOnClose) {
  std::mutex mu;
  std::condition_variable cv;
  ConnectionPtr server_conn;
  TcpTransport transport;
  ASSERT_TRUE(transport
                  .Listen("defer",
                          [&](ConnectionPtr conn) {
                            std::lock_guard<std::mutex> lock(mu);
                            server_conn = std::move(conn);
                            cv.notify_all();
                          })
                  .ok());

  // The HELLO and three requests in one send: the server's reader gets
  // them in one read.
  std::string wire;
  EncodeHello("defer-client", LinkModel{}, &wire);
  for (uint32_t id = 1; id <= 3; ++id) {
    Message msg;
    msg.request_id = id;
    msg.payload = "request-" + std::to_string(id);
    EncodeFrame(msg, &wire);
  }
  const int fd = ConnectRaw(transport.ListenAddress("defer"));
  WriteAll(fd, wire, wire.size());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return server_conn != nullptr; }));
  }

  Message got;
  ASSERT_TRUE(server_conn->Recv(&got).ok());
  EXPECT_EQ(got.request_id, 1u);
  Message reply;
  reply.request_id = 1;
  reply.flags = Message::kFlagResponse;
  reply.payload = "first answer";
  ASSERT_TRUE(server_conn->Send(std::move(reply)).ok());
  // Two requests are still buffered, so the reply waits for the burst.
  std::this_thread::sleep_for(50ms);
  char probe;
  EXPECT_EQ(::recv(fd, &probe, 1, MSG_DONTWAIT | MSG_PEEK), -1)
      << "a reply sent mid-burst was written at once";

  server_conn->Close();
  std::string body;
  ASSERT_TRUE(ReadFrame(fd, &body));
  Message decoded;
  ASSERT_TRUE(DecodeFrameBody(body, &decoded));
  EXPECT_EQ(decoded.request_id, 1u);
  EXPECT_EQ(decoded.payload, "first answer");
  EXPECT_TRUE(ReadsEof(fd, 1000ms));
  ::close(fd);
}

// An oversized frame is refused at Send() time, before any bytes move.
TEST(TcpTransportTest, OversizedFrameRejected) {
  TcpOptions options;
  options.max_frame_bytes = 1024;
  TcpTransport transport(options);
  Inbox inbox;
  ASSERT_TRUE(transport.Listen("small", inbox.Handler()).ok());
  ConnectionPtr conn;
  ASSERT_TRUE(transport.Connect("small", LinkModel::Loopback(), &conn).ok());
  Message msg;
  msg.payload = std::string(4096, 'z');
  EXPECT_EQ(conn->Send(std::move(msg)).code(), ErrorCode::kProtocol);
  // The connection survives the rejected frame. Waiting for a normal one
  // also keeps the inbox alive until the listener has accepted: the
  // accept thread runs the accept handler asynchronously.
  Message small;
  small.payload = "ok";
  ASSERT_TRUE(conn->Send(std::move(small)).ok());
  EXPECT_TRUE(inbox.WaitForMessages(1, 5s));
}

// A peer that connects and never sends its HELLO, and one that sends a
// corrupt HELLO, hold up nobody: while both stay open a normal client
// connects and completes a call, and the corrupt one is dropped.
TEST(TcpTransportTest, SilentOrGarbledHelloHoldsUpNobody) {
  TcpTransport transport;
  EchoServer echo(&transport);
  const std::string endpoint = transport.ListenAddress("echo");
  const int silent = ConnectRaw(endpoint);
  const int garbled = ConnectRaw(endpoint);
  std::string wire;
  EncodeHello("garbler", LinkModel{}, &wire);
  wire[4] ^= 0xff;  // the magic's first byte
  WriteAll(garbled, wire, wire.size());

  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());
  std::string response;
  ASSERT_TRUE(client->Call(1, "through", &response).ok());
  EXPECT_EQ(response, "through");
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);

  EXPECT_TRUE(ReadsEof(garbled, 1000ms));
  ::close(garbled);
  ::close(silent);
}

// Three requests written in one send reach an echo server as one burst.
// The replies it defers while it still holds buffered requests come
// back complete and in order.
TEST(TcpTransportTest, PipelinedBurstRepliesInOrder) {
  TcpTransport transport;
  EchoServer echo(&transport);
  const int fd = ConnectRaw(transport.ListenAddress("echo"));

  std::string wire;
  EncodeHello("burst-client", LinkModel{}, &wire);
  Message auth;
  auth.request_id = 1;
  auth.opcode = kOpcodeAuth;  // anonymous
  EncodeFrame(auth, &wire);
  WriteAll(fd, wire, wire.size());
  std::string body;
  Message decoded;
  ASSERT_TRUE(ReadFrame(fd, &body));
  ASSERT_TRUE(DecodeFrameBody(body, &decoded));
  EXPECT_EQ(decoded.request_id, 1u);
  EXPECT_FALSE(decoded.is_error());

  std::string burst;
  for (uint32_t id = 2; id <= 4; ++id) {
    Message request;
    request.request_id = id;
    request.opcode = 1;
    request.payload = "request-" + std::to_string(id);
    EncodeFrame(request, &burst);
  }
  WriteAll(fd, burst, burst.size());
  for (uint32_t id = 2; id <= 4; ++id) {
    ASSERT_TRUE(ReadFrame(fd, &body)) << "reply " << id;
    ASSERT_TRUE(DecodeFrameBody(body, &decoded));
    EXPECT_TRUE(decoded.is_response());
    EXPECT_EQ(decoded.request_id, id);
    EXPECT_EQ(decoded.payload, "request-" + std::to_string(id));
  }
  ::close(fd);
}

}  // namespace
}  // namespace net
