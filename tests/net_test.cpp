#include "net/rpc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace net {
namespace {

using rlscommon::ErrorCode;
using rlscommon::Status;

TEST(SerializeTest, RoundTripAllTypes) {
  std::string buffer;
  Writer w(&buffer);
  w.U8(7);
  w.U16(65535);
  w.U32(123456);
  w.U64(1ull << 60);
  w.I64(-42);
  w.F64(2.5);
  w.Str("hello");

  Reader r(buffer);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U16(&u16));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.I64(&i64));
  ASSERT_TRUE(r.F64(&f64));
  ASSERT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 2.5);
  EXPECT_EQ(s, "hello");
}

TEST(SerializeTest, UnderflowDetected) {
  Reader r("ab");
  uint64_t u64;
  EXPECT_FALSE(r.U64(&u64));
  std::string s;
  Reader r2("\xff\xff\xff\xff");  // length prefix larger than body
  EXPECT_FALSE(r2.Str(&s));
}

struct NameList {
  std::vector<std::string> names;
  NET_WIRE_MESSAGE(NameList, names)
};

TEST(SerializeTest, HostileStrVecCountRejected) {
  // A huge count with a tiny body must not allocate or loop forever:
  // every string needs at least its 4-byte length prefix.
  std::string buffer;
  Writer w(&buffer);
  w.U32(0x7fffffff);
  NameList decoded;
  EXPECT_EQ(NameList::Decode(buffer, &decoded).code(), ErrorCode::kProtocol);
}

TEST(LinkModelTest, DelayMath) {
  using Millis = std::chrono::duration<double, std::milli>;
  LinkModel lan = LinkModel::Lan100Mbit();
  // 1 MB at 100 Mbit/s ~= 80 ms serialization + 0.1 ms propagation.
  double ms = Millis(lan.DelayFor(1000000)).count();
  EXPECT_NEAR(ms, 80.1, 1.0);

  LinkModel wan = LinkModel::WanLaToChicago();
  double rtt_half_ms = Millis(wan.DelayFor(0)).count();
  EXPECT_NEAR(rtt_half_ms, 31.9, 0.1);

  LinkModel loop = LinkModel::Loopback();
  EXPECT_EQ(loop.DelayFor(1 << 20), rlscommon::Duration::zero());
}

TEST(MessageQueueTest, FifoAndClose) {
  MessageQueue queue;
  Message m;
  m.opcode = 1;
  ASSERT_TRUE(queue.Push(m));
  m.opcode = 2;
  ASSERT_TRUE(queue.Push(m));
  Message out;
  ASSERT_TRUE(queue.Pop(&out).ok());
  EXPECT_EQ(out.opcode, 1);
  queue.Close();
  // Drains remaining messages, then reports closed.
  ASSERT_TRUE(queue.Pop(&out).ok());
  EXPECT_EQ(out.opcode, 2);
  EXPECT_EQ(queue.Pop(&out).code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(queue.Push(m));
}

TEST(MessageQueueTest, PopWakesOnClose) {
  MessageQueue queue;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Close();
  });
  Message out;
  EXPECT_EQ(queue.Pop(&out).code(), ErrorCode::kUnavailable);
  closer.join();
}

TEST(MessageQueueTest, CloseEnqueueInterleaving) {
  // Concurrent producers racing a Close: every Push either lands (and is
  // drained before the closed status surfaces) or reports failure —
  // messages are never silently lost and never appear after Unavailable.
  for (int round = 0; round < 20; ++round) {
    MessageQueue queue;
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 16; ++i) {
          Message m;
          m.opcode = static_cast<uint16_t>(p * 100 + i);
          if (queue.Push(m)) accepted.fetch_add(1);
        }
      });
    }
    std::thread closer([&] { queue.Close(); });
    for (auto& t : producers) t.join();
    closer.join();
    int drained = 0;
    Message out;
    while (queue.Pop(&out).ok()) ++drained;
    EXPECT_EQ(drained, accepted.load());
    EXPECT_EQ(queue.Pop(&out).code(), ErrorCode::kUnavailable);
  }
}

TEST(MessageQueueTest, BlockedPopWakesOnClose) {
  MessageQueue queue;
  Message out;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Close();
  });
  // No traffic: the waiter blocks until Close, then gets Unavailable.
  EXPECT_EQ(queue.Pop(&out).code(), ErrorCode::kUnavailable);
  closer.join();
}

// With a receiver set, each push runs it on the pushing thread instead
// of queueing, and racing closers run its close notice exactly once.
TEST(MessageQueueTest, ReceiverRunsOnPushingThreadAndClosesOnce) {
  MessageQueue queue;
  std::vector<uint16_t> delivered;
  std::thread::id delivered_on;
  std::atomic<int> closes{0};
  ASSERT_TRUE(queue.SetReceiver(Receiver{
      [&](Message m) {
        delivered.push_back(m.opcode);
        delivered_on = std::this_thread::get_id();
      },
      [&] { closes.fetch_add(1); }}));
  Message m;
  m.opcode = 7;
  ASSERT_TRUE(queue.Push(m));
  EXPECT_EQ(delivered, std::vector<uint16_t>{7});
  EXPECT_EQ(delivered_on, std::this_thread::get_id());

  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) closers.emplace_back([&] { queue.Close(); });
  for (auto& t : closers) t.join();
  EXPECT_EQ(closes.load(), 1);
  Message out;
  EXPECT_EQ(queue.Pop(&out).code(), ErrorCode::kUnavailable);  // nothing was queued
  EXPECT_FALSE(queue.Push(m));
  EXPECT_EQ(delivered.size(), 1u);
}

// A queue that already holds messages, or is closed, keeps Pop delivery.
TEST(MessageQueueTest, SetReceiverRefusesQueuedOrClosedQueue) {
  const Receiver ignore{[](Message) {}, [] {}};
  MessageQueue queued;
  ASSERT_TRUE(queued.Push(Message{}));
  EXPECT_FALSE(queued.SetReceiver(ignore));
  Message out;
  EXPECT_TRUE(queued.Pop(&out).ok());
  MessageQueue closed;
  closed.Close();
  EXPECT_FALSE(closed.SetReceiver(ignore));
}

// An in-process client that registers a receiver gets each message the
// server sends on the server's own thread, and the server's close once.
TEST(NetworkTest, DeliverToRunsReceiverOnTheSendingThread) {
  InProcTransport network;
  ConnectionPtr server_side;
  ASSERT_TRUE(network
                  .Listen("srv:deliver",
                          [&](ConnectionPtr conn) { server_side = std::move(conn); })
                  .ok());
  ConnectionPtr client;
  ASSERT_TRUE(network.Connect("srv:deliver", LinkModel::Loopback(), &client).ok());
  ASSERT_NE(server_side, nullptr);

  std::string payload;
  std::thread::id delivered_on;
  std::thread::id closed_on;
  int closes = 0;
  ASSERT_TRUE(client->DeliverTo(Receiver{
      [&](Message m) {
        payload = m.payload;
        delivered_on = std::this_thread::get_id();
      },
      [&] {
        ++closes;
        closed_on = std::this_thread::get_id();
      }}));
  std::thread::id server_thread;
  std::thread server([&] {
    server_thread = std::this_thread::get_id();
    Message reply;
    reply.payload = "direct";
    EXPECT_TRUE(server_side->Send(std::move(reply)).ok());
    server_side->Close();
  });
  server.join();
  EXPECT_EQ(payload, "direct");
  EXPECT_EQ(delivered_on, server_thread);
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(closed_on, server_thread);
  EXPECT_TRUE(client->closed());
  client->Close();  // already closed: no second notice
  EXPECT_EQ(closes, 1);
}

TEST(NetworkTest, ConnectRefusedWithoutListener) {
  InProcTransport network;
  ConnectionPtr conn;
  EXPECT_EQ(network.Connect("nowhere:1", LinkModel::Loopback(), &conn).code(),
            ErrorCode::kNotFound);
}

TEST(NetworkTest, ListenRejectsDuplicateAddress) {
  InProcTransport network;
  ASSERT_TRUE(network.Listen("addr:1", [](ConnectionPtr) {}).ok());
  EXPECT_EQ(network.Listen("addr:1", [](ConnectionPtr) {}).code(),
            ErrorCode::kAlreadyExists);
  network.StopListening("addr:1");
  EXPECT_TRUE(network.Listen("addr:1", [](ConnectionPtr) {}).ok());
}

RpcHandler EchoHandler() {
  return [](const gsi::AuthContext&, uint16_t opcode, const std::string& request,
            std::string* response) -> Status {
    if (opcode == 99) return Status::NotFound("nothing here");
    *response = request + "!";
    return Status::Ok();
  };
}

/// Requests `registry`'s server executed.
double RequestsServed(const obs::Registry& registry) {
  return obs::SampleValue(registry.TakeSnapshot().samples, "rpc_requests_total",
                          obs::kAnyLabels);
}

TEST(RpcTest, CallRoundTrip) {
  InProcTransport network;
  obs::Registry registry;
  ServerOptions options;
  options.metrics = &registry;
  RpcServer server(&network, "echo:1", options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "echo:1", ClientOptions{}, &client).ok());
  std::string response;
  ASSERT_TRUE(client->Call(5, "hello", &response).ok());
  EXPECT_EQ(response, "hello!");
  EXPECT_EQ(RequestsServed(registry), 1);
  server.Stop();
}

// A Start that fails because the address is taken leaves nothing
// running: the server destructs cleanly, and no registry callback keeps
// pointing at it.
TEST(RpcTest, FailedStartDestructsCleanly) {
  InProcTransport network;
  ServerOptions options;
  options.workers = 2;
  RpcServer first(&network, "taken:1", options, EchoHandler());
  ASSERT_TRUE(first.Start().ok());

  obs::Registry registry;
  {
    ServerOptions second_options = options;
    second_options.metrics = &registry;
    RpcServer second(&network, "taken:1", second_options, EchoHandler());
    EXPECT_EQ(second.Start().code(), ErrorCode::kAlreadyExists);
  }
  const std::string rendered = registry.RenderJson();
  EXPECT_EQ(rendered.find("rpc_active_connections"), std::string::npos);
  EXPECT_EQ(rendered.find("rpc_queue_depth"), std::string::npos);

  // The server that owns the address is untouched.
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "taken:1", ClientOptions{}, &client).ok());
  std::string response;
  ASSERT_TRUE(client->Call(5, "still here", &response).ok());
  EXPECT_EQ(response, "still here!");
  first.Stop();
}

TEST(RpcTest, ServerErrorsPropagateAsStatus) {
  InProcTransport network;
  RpcServer server(&network, "echo:2", ServerOptions{}, EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "echo:2", ClientOptions{}, &client).ok());
  std::string response;
  Status s = client->Call(99, "", &response);
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "nothing here");
  server.Stop();
}

TEST(RpcTest, SecuredServerRejectsAnonymous) {
  gsi::Gridmap gridmap;
  ASSERT_TRUE(gridmap.AddEntry("/CN=Tester", "tester").ok());
  gsi::Acl acl;
  ASSERT_TRUE(acl.AddEntry("tester", {gsi::Privilege::kLrcRead}).ok());
  ServerOptions options;
  options.auth =
      gsi::AuthManager::Secured(std::move(gridmap), std::move(acl),
                                std::chrono::microseconds(0));
  InProcTransport network;
  RpcServer server(&network, "sec:1", options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<RpcClient> client;
  Status s = RpcClient::Connect(&network, "sec:1", ClientOptions{}, &client);
  EXPECT_EQ(s.code(), ErrorCode::kUnauthenticated);

  ClientOptions with_cred;
  with_cred.credential.dn = "/CN=Tester";
  ASSERT_TRUE(RpcClient::Connect(&network, "sec:1", with_cred, &client).ok());
  std::string response;
  EXPECT_TRUE(client->Call(1, "ping", &response).ok());
  server.Stop();
}

TEST(RpcTest, ManyConcurrentClients) {
  InProcTransport network;
  obs::Registry registry;
  ServerOptions options;
  options.metrics = &registry;
  RpcServer server(&network, "echo:3", options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      std::unique_ptr<RpcClient> client;
      if (!RpcClient::Connect(&network, "echo:3", ClientOptions{}, &client).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 50; ++i) {
        std::string response;
        if (!client->Call(1, "x", &response).ok() || response != "x!") ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(RequestsServed(registry), 16 * 50);
  server.Stop();
}

TEST(RpcTest, CallAfterServerStopFails) {
  InProcTransport network;
  auto server = std::make_unique<RpcServer>(&network, "echo:4", ServerOptions{},
                                            EchoHandler());
  ASSERT_TRUE(server->Start().ok());
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "echo:4", ClientOptions{}, &client).ok());
  server->Stop();
  std::string response;
  EXPECT_EQ(client->Call(1, "x", &response).code(), ErrorCode::kUnavailable);
}

TEST(RpcTest, LinkModelDelaysCall) {
  InProcTransport network;
  RpcServer server(&network, "slow:1", ServerOptions{}, EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.link.rtt = std::chrono::microseconds(40000);  // 40 ms RTT
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "slow:1", options, &client).ok());
  auto start = std::chrono::steady_clock::now();
  std::string response;
  ASSERT_TRUE(client->Call(1, "x", &response).ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  // One call = request + response = one full RTT minimum.
  EXPECT_GE(elapsed, std::chrono::microseconds(38000));
  server.Stop();
}

}  // namespace
}  // namespace net
