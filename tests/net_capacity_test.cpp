// Shared inbound capacity (RateLimiter) — the Fig. 13 mechanism — and
// link-model timing composition.
#include <gtest/gtest.h>

#include <barrier>
#include <thread>

#include "net/rpc.h"
#include "net/transport.h"

namespace net {
namespace {

TEST(RateLimiterTest, SingleSenderPaysSerializationTime) {
  RateLimiter limiter(1e6, rlscommon::SystemClock::Instance());  // 1 MB/s
  rlscommon::Stopwatch watch;
  limiter.Acquire(100000);  // 100 KB -> 100 ms
  const double s = watch.ElapsedSeconds();
  EXPECT_GE(s, 0.09);
  EXPECT_LT(s, 0.3);
}

TEST(RateLimiterTest, ConcurrentSendersShareCapacity) {
  RateLimiter limiter(1e6, rlscommon::SystemClock::Instance());  // 1 MB/s
  constexpr int kSenders = 4;
  std::barrier gate(kSenders + 1);
  std::vector<std::thread> threads;
  std::vector<double> times(kSenders);
  for (int t = 0; t < kSenders; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      rlscommon::Stopwatch watch;
      limiter.Acquire(50000);  // 50 KB each; 200 KB total -> 200 ms
      times[t] = watch.ElapsedSeconds();
    });
  }
  gate.arrive_and_wait();
  rlscommon::Stopwatch total;
  for (auto& thread : threads) thread.join();
  // Aggregate must take ~200 ms (4 x 50 KB at 1 MB/s), not ~50 ms.
  EXPECT_GE(total.ElapsedSeconds(), 0.18);
}

TEST(RateLimiterTest, ZeroRateIsUnlimited) {
  RateLimiter limiter(0, rlscommon::SystemClock::Instance());
  rlscommon::Stopwatch watch;
  limiter.Acquire(100 << 20);
  EXPECT_LT(watch.ElapsedSeconds(), 0.05);
}

TEST(InboundCapacityTest, ConcurrentClientsStretchEachOther) {
  // Two clients with generous private links, one capped server: each
  // client's call stretches to share the server's inbound rate.
  InProcTransport network;
  network.SetInboundCapacity("capped:1", 1e6);  // 1 MB/s aggregate
  RpcServer server(&network, "capped:1", ServerOptions{},
                   [](const gsi::AuthContext&, uint16_t, const std::string&,
                      std::string*) { return rlscommon::Status::Ok(); });
  ASSERT_TRUE(server.Start().ok());

  // Connect up front: the AUTH roundtrip is slow under sanitizers, and a
  // connect inside the timed thread can delay one call past the other's
  // window so they never contend.
  std::unique_ptr<RpcClient> c0, c1, c2;
  ASSERT_TRUE(RpcClient::Connect(&network, "capped:1", ClientOptions{}, &c0).ok());
  ASSERT_TRUE(RpcClient::Connect(&network, "capped:1", ClientOptions{}, &c1).ok());
  ASSERT_TRUE(RpcClient::Connect(&network, "capped:1", ClientOptions{}, &c2).ok());

  auto timed_call = [&](RpcClient* client, double* seconds) {
    std::string payload(100000, 'x');  // 100 KB -> 100 ms alone
    rlscommon::Stopwatch watch;
    std::string response;
    EXPECT_TRUE(client->Call(1, payload, &response).ok());
    *seconds = watch.ElapsedSeconds();
  };

  double alone = 0;
  timed_call(c0.get(), &alone);
  EXPECT_GE(alone, 0.09);

  double t1 = 0, t2 = 0;
  std::barrier gate(2);
  std::thread a([&] {
    gate.arrive_and_wait();
    timed_call(c1.get(), &t1);
  });
  std::thread b([&] {
    gate.arrive_and_wait();
    timed_call(c2.get(), &t2);
  });
  a.join();
  b.join();
  // Together, at least one of them waits behind the other's bytes.
  EXPECT_GE(std::max(t1, t2), alone * 1.5);
  server.Stop();
}

TEST(InboundCapacityTest, RemovingCapRestoresSpeed) {
  InProcTransport network;
  network.SetInboundCapacity("freed:1", 1e5);  // crawl
  network.SetInboundCapacity("freed:1", 0);    // lifted
  RpcServer server(&network, "freed:1", ServerOptions{},
                   [](const gsi::AuthContext&, uint16_t, const std::string&,
                      std::string*) { return rlscommon::Status::Ok(); });
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "freed:1", ClientOptions{}, &client).ok());
  std::string payload(1 << 20, 'x');
  rlscommon::Stopwatch watch;
  std::string response;
  ASSERT_TRUE(client->Call(1, payload, &response).ok());
  EXPECT_LT(watch.ElapsedSeconds(), 0.5);
  server.Stop();
}

TEST(LinkAndCapacityTest, DelaysCompose) {
  // Private link serialization + shared capacity both apply.
  InProcTransport network;
  network.SetInboundCapacity("compose:1", 2e6);
  RpcServer server(&network, "compose:1", ServerOptions{},
                   [](const gsi::AuthContext&, uint16_t, const std::string&,
                      std::string*) { return rlscommon::Status::Ok(); });
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.link.bandwidth_bps = 8e6;  // 1 MB/s private link
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&network, "compose:1", options, &client).ok());
  std::string payload(100000, 'x');  // 100 ms on the link + 50 ms at the cap
  rlscommon::Stopwatch watch;
  std::string response;
  ASSERT_TRUE(client->Call(1, payload, &response).ok());
  EXPECT_GE(watch.ElapsedSeconds(), 0.13);
  server.Stop();
}

}  // namespace
}  // namespace net
