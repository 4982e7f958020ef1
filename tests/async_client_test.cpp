// Async RPC client tests, run on both transports: the multiplexer
// (pipelined calls, issue-order completion behind a held handler, Then
// chaining, id wrap, stale-response discard, fault-injected disconnects
// and drops) and the reply path's lifecycle rules — Close() waits for a
// callback running on another thread and runs none afterwards, a
// server's Stop() fails every call in flight exactly once, and a
// callback that issues a follow-up call while Close() fails its call
// lets Close() return. In-process, replies are delivered on the
// server's sending thread; over TCP, on the client's receiver thread.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "echo_server.h"
#include "net/fault.h"
#include "net/rpc.h"

namespace net {
namespace {

using namespace std::chrono_literals;
using rlscommon::ErrorCode;
using rlscommon::Status;

class AsyncClientTest : public ::testing::TestWithParam<const char*> {
 protected:
  AsyncClientTest() : transport_(MakeTransport(GetParam())) {}

  std::unique_ptr<Transport> transport_;
};

INSTANTIATE_TEST_SUITE_P(Transports, AsyncClientTest,
                         ::testing::Values("inproc", "tcp://127.0.0.1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return info.index == 0 ? "InProc" : "Tcp";
                         });

// A server forgets a connection once its client has closed it: after
// 200 connect, ping and close cycles none is left.
TEST_P(AsyncClientTest, ServerReapsClosedConnections) {
  Transport& transport = *transport_;
  EchoServer echo(&transport);
  for (int i = 0; i < 200; ++i) {
    std::unique_ptr<RpcClient> client;
    ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());
    std::string response;
    ASSERT_TRUE(client->Call(1, "ping", &response).ok());
    client->Close();
  }
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (echo.server->active_connections() > 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(echo.server->active_connections(), 0u);
}

// 1000 calls issued before any response is read back: the multiplexer
// matches every response to its future by request id over one
// connection.
TEST_P(AsyncClientTest, ThousandPipelinedCalls) {
  Transport& transport = *transport_;
  EchoServer echo(&transport);

  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());

  constexpr int kCalls = 1000;
  std::vector<Future> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(client->BeginCall(1, "payload-" + std::to_string(i)));
  }
  for (int i = 0; i < kCalls; ++i) {
    std::string response;
    ASSERT_TRUE(futures[i].Wait(&response).ok()) << "call " << i;
    EXPECT_EQ(response, "payload-" + std::to_string(i));
  }
}

// Completion callbacks fire without any Wait() — including follow-up
// calls issued from the callback itself.
TEST_P(AsyncClientTest, ThenCallbacksChain) {
  Transport& transport = *transport_;
  EchoServer echo(&transport);
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());

  std::mutex mu;
  std::condition_variable cv;
  std::string second_response;
  client->BeginCall(1, "one").Then(
      [&](const Status& status, const std::string& response) {
        ASSERT_TRUE(status.ok());
        ASSERT_EQ(response, "one");
        client->BeginCall(1, "two").Then(
            [&](const Status& status2, const std::string& response2) {
              ASSERT_TRUE(status2.ok());
              std::lock_guard<std::mutex> lock(mu);
              second_response = response2;
              cv.notify_all();
            });
      });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5000ms, [&] { return !second_response.empty(); }));
  EXPECT_EQ(second_response, "two");
}

// The request-id counter is monotonic and skips the reserved id 0 when
// it wraps (id 0 would alias the pre-async sentinel).
TEST_P(AsyncClientTest, RequestIdWrapSkipsZero) {
  Transport& transport = *transport_;
  EchoServer echo(&transport);
  ClientOptions options;
  options.first_request_id = 0xFFFFFFFE;  // two ids before the wrap
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", options, &client).ok());

  // Handshake consumed FFFFFFFE; these cross FFFFFFFF -> 1 -> 2.
  for (int i = 0; i < 4; ++i) {
    std::string response;
    ASSERT_TRUE(client->Call(1, "wrap-" + std::to_string(i), &response).ok());
    EXPECT_EQ(response, "wrap-" + std::to_string(i));
  }
}

// Closing the client fails the calls in flight with UNAVAILABLE, a
// stale reply arriving for the retired connection is discarded, and the
// next call transparently reconnects.
TEST_P(AsyncClientTest, StaleResponseFromRetiredConnectionDiscarded) {
  Transport& transport = *transport_;

  // A hand-rolled server: answers the AUTH handshake, withholds opcode
  // 77 (capturing the request), echoes everything else.
  std::mutex mu;
  std::condition_variable withheld_cv;
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  std::vector<Message> withheld;  // requests we never answered
  // Closes the server's connections and joins its readers however the
  // test ends.
  struct JoinReaders {
    std::function<void()> run;
    ~JoinReaders() { run(); }
  } join_readers{[&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& c : conns) c->Close();
    }
    for (std::thread& t : readers) t.join();
  }};
  ASSERT_TRUE(transport
                  .Listen("manual",
                          [&](ConnectionPtr conn) {
                            std::lock_guard<std::mutex> lock(mu);
                            conns.emplace_back(conn.release());
                            auto c = conns.back();
                            readers.emplace_back([&, c] {
                              Message msg;
                              while (c->Recv(&msg).ok()) {
                                if (msg.opcode == 77) {
                                  std::lock_guard<std::mutex> lock(mu);
                                  withheld.push_back(std::move(msg));
                                  withheld_cv.notify_all();
                                  continue;
                                }
                                Message reply;
                                reply.request_id = msg.request_id;
                                reply.opcode = msg.opcode;
                                reply.flags = Message::kFlagResponse;
                                reply.payload = msg.payload;
                                if (!c->Send(std::move(reply)).ok()) break;
                              }
                            });
                          })
                  .ok());

  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "manual", {}, &client).ok());

  Future stuck = client->BeginCall(77, "never answered");
  {
    // The server's reader runs on its own schedule: retire the
    // connection once it holds the call.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(withheld_cv.wait_for(lock, 5s, [&] { return !withheld.empty(); }));
  }
  EXPECT_FALSE(stuck.done());
  client->Close();  // retires the connection under the call

  Status status = stuck.Wait();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);

  // The next call reconnects on a fresh epoch...
  std::string response;
  ASSERT_TRUE(client->Call(1, "after-reconnect", &response).ok());
  EXPECT_EQ(response, "after-reconnect");
  EXPECT_GE(client->reconnects(), 1u);

  // ...and a late reply to the retired request id changes nothing.
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(withheld.size(), 1u);
    Message stale;
    stale.request_id = withheld[0].request_id;
    stale.opcode = 77;
    stale.flags = Message::kFlagResponse;
    stale.payload = "too late";
    (void)conns[0]->Send(std::move(stale));
  }
  ASSERT_TRUE(client->Call(1, "still fine", &response).ok());
  EXPECT_EQ(response, "still fine");
}

// Seeded fault injection on either fabric: a server that
// force-disconnects every few messages is ridden out by retry+reconnect.
TEST_P(AsyncClientTest, FaultInjectionDisconnects) {
  Transport& transport = *transport_;
  FaultInjector* faults = transport.EnableFaultInjection(77);
  EchoServer echo(&transport);

  FaultPlan plan;
  plan.disconnect_after_messages = 3;
  faults->SetPlan("echo", plan);

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 1ms;
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", options, &client).ok());
  for (int i = 0; i < 10; ++i) {
    std::string response;
    EXPECT_TRUE(client->Call(1, "m", &response).ok()) << "call " << i;
  }
  EXPECT_GE(faults->disconnects(), 2u);
  EXPECT_GE(client->reconnects(), 2u);
}

// A reply the fault injector drops never reaches the client, whichever
// thread would have delivered it: the call ends in TIMEOUT under its
// deadline and stays in flight until the client closes.
TEST_P(AsyncClientTest, DroppedReplyTimesOut) {
  Transport& transport = *transport_;
  FaultInjector* faults = transport.EnableFaultInjection(5);
  EchoServer echo(&transport);

  ClientOptions options;
  options.identity = "dropped-client";
  options.call_timeout = 200ms;
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", options, &client).ok());

  FaultPlan plan;
  plan.drop_probability = 1.0;  // every message toward the client
  faults->SetPlan("dropped-client", plan);
  Future future = client->BeginCall(1, "lost reply");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(future.Wait().code(), ErrorCode::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 150ms);
  EXPECT_FALSE(future.done());
  EXPECT_EQ(echo.requests(), 1);  // the request got through
  EXPECT_GE(faults->drops(), 1u);

  client->Close();
  EXPECT_EQ(future.Wait().code(), ErrorCode::kUnavailable);
}

// Close() waits for a completion callback running on another thread
// (in-process: the server thread that sent the reply), and no callback
// of the client runs once it returns: the call still held in the server
// fails inside Close(), and its late reply is discarded.
TEST_P(AsyncClientTest, CloseWaitsForRunningCallback) {
  Transport& transport = *transport_;
  EchoServer echo(&transport, /*work=*/150ms);
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());

  std::atomic<int> callbacks{0};
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_finished{false};
  // Both calls take 150 ms in the server, so each callback is
  // registered long before its reply and runs on the delivering thread.
  client->BeginCall(900, "slow callback")
      .Then([&](const Status& status, const std::string&) {
        EXPECT_TRUE(status.ok());
        slow_started = true;
        std::this_thread::sleep_for(200ms);
        slow_finished = true;
        ++callbacks;
      });
  Status held_status;
  Future held = client->BeginCall(900, "held");  // served after the first
  held.Then([&](const Status& status, const std::string&) {
    held_status = status;
    ++callbacks;
  });

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!slow_started && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(slow_started);
  client->Close();
  EXPECT_TRUE(slow_finished) << "Close() returned while a callback ran";
  EXPECT_EQ(callbacks.load(), 2);
  EXPECT_EQ(held_status.code(), ErrorCode::kUnavailable);

  // The server still answers the held call once its 150 ms are up; that
  // reply belongs to a retired connection and runs nothing.
  std::this_thread::sleep_for(400ms);
  EXPECT_EQ(callbacks.load(), 2);
}

// Stopping the server fails every call in flight exactly once, with
// UNAVAILABLE: the one being served and the ones queued behind it.
TEST_P(AsyncClientTest, ServerStopFailsInFlightCallsOnce) {
  Transport& transport = *transport_;
  EchoServer echo(&transport, /*work=*/100ms);
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());

  constexpr int kCalls = 6;
  std::array<std::atomic<int>, kCalls> fired{};
  std::array<std::atomic<int>, kCalls> codes{};
  std::vector<Future> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(client->BeginCall(900, "in flight"));
    futures.back().Then([&, i](const Status& status, const std::string&) {
      codes[i] = static_cast<int>(status.code());
      ++fired[i];
    });
  }
  std::this_thread::sleep_for(50ms);  // the first call is in the handler
  // Stop() returns once the server's threads are gone, so every late
  // reply has been attempted by then.
  echo.server->Stop();
  for (Future& future : futures) {
    EXPECT_EQ(future.Wait().code(), ErrorCode::kUnavailable);
  }
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "call " << i;
    EXPECT_EQ(codes[i].load(), static_cast<int>(ErrorCode::kUnavailable))
        << "call " << i;
  }
}

// Close() retires the connection while a call is held in the server.
// The call's callback, run as the call fails, issues a follow-up call,
// which takes the client's lock: Close() must not hold that lock while
// it waits for the callback.
TEST_P(AsyncClientTest, FollowUpCallFromFailedCallbackLetsCloseReturn) {
  // Heap objects, the closing thread too, leaked if Close() hangs: its
  // stuck threads still use them, and the test must fail, not hang.
  auto* transport = MakeTransport(GetParam()).release();
  auto* echo = new EchoServer(transport, /*work=*/300ms);
  std::unique_ptr<RpcClient> owned;
  ASSERT_TRUE(RpcClient::Connect(transport, "echo", {}, &owned).ok());
  RpcClient* client = owned.release();

  auto callback_ran = std::make_shared<std::atomic<bool>>(false);
  Future held = client->BeginCall(900, "held");
  held.Then([client, callback_ran](const Status& status, const std::string&) {
    if (status.ok()) return;
    *callback_ran = true;
    client->BeginCall(1, "follow-up");
  });
  std::this_thread::sleep_for(50ms);  // the call is in the handler

  auto closed = std::make_shared<std::promise<void>>();
  std::future<void> close_returned = closed->get_future();
  auto* closer = new std::thread([client, closed] {
    client->Close();
    closed->set_value();
  });
  if (close_returned.wait_for(3s) != std::future_status::ready) {
    FAIL() << "Close() did not return within 3 s (callback ran: "
           << callback_ran->load() << ")";
  }
  closer->join();
  delete closer;
  EXPECT_TRUE(callback_ran->load());
  EXPECT_EQ(held.Wait().code(), ErrorCode::kUnavailable);
  delete client;
  delete echo;
  delete transport;
}

// A callback that issues a follow-up call while the client is being
// destroyed gets UNAVAILABLE at once: the dying client opens no new
// connection, so no reply can reach it once it is gone.
TEST_P(AsyncClientTest, FollowUpCallDuringDestructionFailsAtOnce) {
  Transport& transport = *transport_;
  EchoServer echo(&transport, /*work=*/300ms);
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "echo", {}, &client).ok());

  auto follow_up = std::make_shared<Future>();
  RpcClient* raw = client.get();
  client->BeginCall(900, "held").Then(
      [raw, follow_up](const Status& status, const std::string&) {
        if (!status.ok()) *follow_up = raw->BeginCall(1, "follow-up");
      });
  std::this_thread::sleep_for(50ms);  // the call is in the handler
  client.reset();
  ASSERT_TRUE(follow_up->valid());
  EXPECT_TRUE(follow_up->done());
  EXPECT_EQ(follow_up->Wait().code(), ErrorCode::kUnavailable);
}

// One connection's requests run one at a time, on the server thread
// that reads them. While the first call's handler is held, BeginCall
// keeps returning without waiting for a reply; once the handler is
// released, every call completes OK, in the order it was issued.
TEST_P(AsyncClientTest, PipelinedCallsCompleteInIssueOrder) {
  Transport& transport = *transport_;
  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool held = false;
  bool released = false;
  auto release = [&] {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
    latch_cv.notify_all();
  };
  RpcServer server(&transport, "latch", ServerOptions{},
                   [&](const gsi::AuthContext&, uint16_t opcode,
                       const std::string& request, std::string* response) {
                     if (opcode == 900) {
                       std::unique_lock<std::mutex> lock(latch_mu);
                       held = true;
                       latch_cv.notify_all();
                       latch_cv.wait(lock, [&] { return released; });
                     }
                     *response = request;
                     return Status::Ok();
                   });
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<RpcClient> client;
  ASSERT_TRUE(RpcClient::Connect(&transport, "latch", {}, &client).ok());

  constexpr int kCalls = 121;  // the held call and 120 behind it
  std::mutex order_mu;
  std::condition_variable order_cv;
  std::vector<int> completed;
  auto record = [&](int i) {
    return [&, i](const Status& status, const std::string& response) {
      EXPECT_TRUE(status.ok()) << "call " << i << ": " << status.ToString();
      EXPECT_EQ(response, std::to_string(i));
      std::lock_guard<std::mutex> lock(order_mu);
      completed.push_back(i);
      order_cv.notify_all();
    };
  };
  std::vector<Future> futures;
  futures.push_back(client->BeginCall(900, "0"));
  futures[0].Then(record(0));
  {
    std::unique_lock<std::mutex> lock(latch_mu);
    ASSERT_TRUE(latch_cv.wait_for(lock, 5s, [&] { return held; }));
  }

  // Issued from another thread, so a BeginCall that waited for a reply
  // fails the test instead of hanging it.
  std::promise<int> issued_while_held;
  std::thread issuer([&] {
    int early = 0;  // calls after which the held call was already done
    for (int i = 1; i < kCalls; ++i) {
      futures.push_back(client->BeginCall(1, std::to_string(i)));
      futures.back().Then(record(i));
      if (futures[0].done()) ++early;
    }
    issued_while_held.set_value(early);
  });
  std::future<int> issued = issued_while_held.get_future();
  const bool returned = issued.wait_for(5s) == std::future_status::ready;
  release();
  issuer.join();
  ASSERT_TRUE(returned) << "BeginCall blocked behind the held handler";
  EXPECT_EQ(issued.get(), 0);

  std::unique_lock<std::mutex> lock(order_mu);
  ASSERT_TRUE(order_cv.wait_for(
      lock, 10s, [&] { return completed.size() == static_cast<std::size_t>(kCalls); }))
      << completed.size() << " of " << kCalls << " calls completed";
  for (int i = 0; i < kCalls; ++i) EXPECT_EQ(completed[i], i);
}

}  // namespace
}  // namespace net
