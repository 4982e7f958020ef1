// Execution-slot checker, run on both transports. With
// ServerOptions::workers = k, at most k normal-lane handlers run at
// once, each on the connection thread that read its request. A reader
// that finds every slot held waits for one in arrival order; once
// queue_depth readers wait, the next is shed with UNAVAILABLE and the
// retry-after hint. A priority-lane request never waits for a slot, a
// handler that fails still gives its slot back, and Stop() ends every
// wait.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/rpc.h"
#include "obs/metrics.h"

namespace net {
namespace {

using namespace std::chrono_literals;
using rlscommon::ErrorCode;
using rlscommon::Status;

constexpr uint16_t kOpWork = 1;      // runs for the server's `work`
constexpr uint16_t kOpHold = 900;    // blocks until Release()
constexpr uint16_t kOpFail = 13;     // returns INTERNAL
constexpr uint16_t kOpPriority = 7;  // admitted on the priority lane
constexpr std::chrono::milliseconds kHint{25};

/// A server whose handlers record how many normal-lane handlers run at
/// once and the order the kOpWork ones start in.
class SlotServer {
 public:
  SlotServer(Transport* transport, int workers, std::size_t queue_depth,
             std::chrono::milliseconds work = 0ms) {
    ServerOptions options;
    options.workers = workers;
    options.queue_depth = queue_depth;
    options.shed_retry_after = kHint;
    options.metrics = &registry_;
    options.admission = [](const gsi::AuthContext&, uint16_t opcode) {
      return AdmitDecision{Status::Ok(), opcode == kOpPriority};
    };
    server_ = std::make_unique<RpcServer>(
        transport, "slots", options,
        [this, work](const gsi::AuthContext&, uint16_t opcode,
                     const std::string& request, std::string* response) {
          return Handle(opcode, request, response, work);
        });
    EXPECT_TRUE(server_->Start().ok());
  }

  ~SlotServer() {
    Release();
    server_->Stop();
  }

  RpcServer& server() { return *server_; }

  /// The most normal-lane handlers that ever ran at once.
  int high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  /// Payloads of the kOpWork requests, in the order their handlers began.
  std::vector<std::string> started() const {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }

  /// Waits until `n` kOpHold handlers are blocked.
  bool WaitHeld(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 5s, [&] { return held_ == n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  double Sample(std::string_view name, std::string_view labels) const {
    return obs::SampleValue(registry_.TakeSnapshot().samples, name, labels);
  }

  /// Waits until `n` readers wait for a slot (the rpc_queue_depth gauge).
  bool WaitWaiting(int n) const {
    const auto give_up = std::chrono::steady_clock::now() + 5s;
    while (Sample("rpc_queue_depth", obs::Label("lane", "normal")) != n) {
      if (std::chrono::steady_clock::now() >= give_up) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }

 private:
  Status Handle(uint16_t opcode, const std::string& request,
                std::string* response, std::chrono::milliseconds work) {
    const bool slotted = opcode != kOpPriority;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (slotted) high_water_ = std::max(high_water_, ++running_);
      if (opcode == kOpWork) started_.push_back(request);
      if (opcode == kOpHold) {
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    if (opcode == kOpWork && work.count() > 0) std::this_thread::sleep_for(work);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (slotted) --running_;
    }
    *response = request;
    return opcode == kOpFail ? Status::Internal("handler failed") : Status::Ok();
  }

  obs::Registry registry_;  // outlives the server
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int running_ = 0;                   // guarded by mu_
  int high_water_ = 0;                // guarded by mu_
  int held_ = 0;                      // guarded by mu_
  bool released_ = false;             // guarded by mu_
  std::vector<std::string> started_;  // guarded by mu_
  std::unique_ptr<RpcServer> server_;
};

class ExecutionSlotTest : public ::testing::TestWithParam<const char*> {
 protected:
  ExecutionSlotTest() : transport_(MakeTransport(GetParam())) {}

  /// A client that never retries and gives up on a call after 5 s, so a
  /// request stuck behind a lost slot fails with TIMEOUT, not a hang.
  std::unique_ptr<RpcClient> Client() {
    ClientOptions options;
    options.retry.max_attempts = 1;
    options.call_timeout = 5000ms;
    std::unique_ptr<RpcClient> client;
    EXPECT_TRUE(RpcClient::Connect(transport_.get(), "slots", options, &client).ok());
    return client;
  }

  std::unique_ptr<Transport> transport_;
};

INSTANTIATE_TEST_SUITE_P(Transports, ExecutionSlotTest,
                         ::testing::Values("inproc", "tcp://127.0.0.1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return info.index == 0 ? "InProc" : "Tcp";
                         });

// 10 blocking clients against 3 slots and a wait line of 2: the handlers
// reach 3 at once and never more, and every refusal is a hinted
// UNAVAILABLE that the queue_full shed counter also saw.
TEST_P(ExecutionSlotTest, StormRunsAtMostWorkersHandlersAndShedsTheRest) {
  constexpr int kSlots = 3;
  SlotServer slots(transport_.get(), kSlots, /*queue_depth=*/2, /*work=*/2ms);
  std::atomic<int> ok{0}, shed{0}, unhinted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 10; ++c) {
    clients.emplace_back([&] {
      std::unique_ptr<RpcClient> rpc = Client();
      if (!rpc) return;
      for (int i = 0; i < 20; ++i) {
        const Status s = rpc->Call(kOpWork, "storm", nullptr);
        if (s.ok()) {
          ++ok;
        } else if (s.code() == ErrorCode::kUnavailable) {
          ++shed;
          if (s.retry_after() != kHint) ++unhinted;
        } else {
          ADD_FAILURE() << s.ToString();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(slots.high_water(), kSlots);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(unhinted.load(), 0);
  EXPECT_EQ(slots.Sample("rpc_shed_total", obs::Label("reason", "queue_full")),
            shed.load());
}

// With the one slot held, six readers queue one after another; once it
// is released they start in the order they arrived.
TEST_P(ExecutionSlotTest, WaitersStartInArrivalOrder) {
  SlotServer slots(transport_.get(), /*workers=*/1, /*queue_depth=*/0);
  std::unique_ptr<RpcClient> holder = Client();
  Future held = holder->BeginCall(kOpHold, "hold");
  ASSERT_TRUE(slots.WaitHeld(1));

  constexpr int kWaiters = 6;
  std::vector<std::unique_ptr<RpcClient>> waiters;
  std::vector<Future> calls;
  std::vector<std::string> arrival;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Client());
    arrival.push_back(std::to_string(i));
    calls.push_back(waiters.back()->BeginCall(kOpWork, arrival.back()));
    ASSERT_TRUE(slots.WaitWaiting(i + 1)) << "waiter " << i << " never queued";
  }
  slots.Release();
  EXPECT_TRUE(held.Wait().ok());
  for (Future& call : calls) EXPECT_TRUE(call.Wait().ok());
  EXPECT_EQ(slots.started(), arrival);
  EXPECT_EQ(slots.high_water(), 1);
}

// Both slots are held and the wait line is full, yet a priority-lane
// request runs at once; a normal one is shed.
TEST_P(ExecutionSlotTest, PriorityOpcodeRunsWhileEverySlotIsHeld) {
  SlotServer slots(transport_.get(), /*workers=*/2, /*queue_depth=*/1);
  std::unique_ptr<RpcClient> first = Client();
  std::unique_ptr<RpcClient> second = Client();
  Future held_first = first->BeginCall(kOpHold, "a");
  Future held_second = second->BeginCall(kOpHold, "b");
  ASSERT_TRUE(slots.WaitHeld(2));
  std::unique_ptr<RpcClient> waiter = Client();
  Future waiting = waiter->BeginCall(kOpWork, "queued");
  ASSERT_TRUE(slots.WaitWaiting(1));

  std::unique_ptr<RpcClient> probe = Client();
  std::string response;
  EXPECT_TRUE(probe->Call(kOpPriority, "probe", &response).ok());
  EXPECT_EQ(response, "probe");
  EXPECT_EQ(probe->Call(kOpWork, "late", nullptr).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(slots.started().empty()) << "a normal request ran past the slots";

  slots.Release();
  EXPECT_TRUE(held_first.Wait().ok());
  EXPECT_TRUE(held_second.Wait().ok());
  EXPECT_TRUE(waiting.Wait().ok());
}

// A handler that fails still gives its slot back: with one slot, a call
// after three failures runs instead of waiting out its deadline.
TEST_P(ExecutionSlotTest, FailingHandlerReturnsItsSlot) {
  SlotServer slots(transport_.get(), /*workers=*/1, /*queue_depth=*/0);
  std::unique_ptr<RpcClient> client = Client();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client->Call(kOpFail, "fail", nullptr).code(), ErrorCode::kInternal);
  }
  const Status after = client->Call(kOpWork, "after", nullptr);
  EXPECT_TRUE(after.ok()) << after.ToString();
}

// Stop() ends the wait of every reader queued behind a held handler:
// their calls fail while the handler is still held, Stop() returns once
// the handler is released, and none of the waiting requests ever runs.
TEST_P(ExecutionSlotTest, StopEndsEveryWait) {
  SlotServer slots(transport_.get(), /*workers=*/1, /*queue_depth=*/0);
  std::unique_ptr<RpcClient> holder = Client();
  Future held = holder->BeginCall(kOpHold, "hold");
  ASSERT_TRUE(slots.WaitHeld(1));
  constexpr int kWaiters = 3;
  std::vector<std::unique_ptr<RpcClient>> waiters;
  std::vector<Future> calls;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Client());
    calls.push_back(waiters.back()->BeginCall(kOpWork, std::to_string(i)));
  }
  ASSERT_TRUE(slots.WaitWaiting(kWaiters));

  std::promise<void> stopped;
  std::future<void> stop_returned = stopped.get_future();
  std::thread stopper([&] {
    slots.server().Stop();
    stopped.set_value();
  });
  for (Future& call : calls) EXPECT_EQ(call.Wait().code(), ErrorCode::kUnavailable);
  slots.Release();
  const bool returned = stop_returned.wait_for(5s) == std::future_status::ready;
  stopper.join();
  EXPECT_TRUE(returned) << "Stop() did not return once the handler was released";
  EXPECT_TRUE(slots.started().empty()) << "a waiting request ran after Stop()";
}

}  // namespace
}  // namespace net
