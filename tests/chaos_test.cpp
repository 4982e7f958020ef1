// Chaos tests: the fault-injection fabric exercised end to end.
//
// The paper's soft-state claim (§4, §6) is that the RLS keeps working
// through server failure: the LRC serves clients while an RLI is dark,
// and the RLI reconverges from a complete update after it heals. These
// tests drive that path with deterministic, seeded fault injection —
// parameterized over both transports (in-process and TCP loopback), so
// blackouts, partitions and the error taxonomy behave identically on
// real sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/rpc.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using namespace std::chrono_literals;
using rlscommon::ErrorCode;
using rlscommon::Status;

/// Polls `predicate` until it holds or `deadline` passes.
bool WaitFor(const std::function<bool()>& predicate,
             std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

/// Parameterized over the transport URI; every scenario must hold on
/// the in-process fabric and the TCP socket stack alike.
class ChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  ChaosTest()
      : transport_(net::MakeTransport(GetParam())), network_(*transport_) {}

  static std::string Unique(const std::string& base) {
    static std::atomic<int> counter{0};
    return base + std::to_string(counter.fetch_add(1));
  }

  RlsServer* StartLrc(const std::string& address, UpdateConfig update) {
    RlsServerConfig config;
    config.address = address;
    config.url = address;
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://" + Unique("chaos_lrc");
    config.lrc.update = std::move(update);
    EXPECT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    servers_.push_back(std::make_unique<RlsServer>(&network_, config, &env_));
    EXPECT_TRUE(servers_.back()->Start().ok());
    return servers_.back().get();
  }

  RlsServer* StartRli(const std::string& address) {
    RlsServerConfig config;
    config.address = address;
    config.rli.enabled = true;
    config.rli.dsn = "mysql://" + Unique("chaos_rli");
    EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    servers_.push_back(std::make_unique<RlsServer>(&network_, config, &env_));
    EXPECT_TRUE(servers_.back()->Start().ok());
    return servers_.back().get();
  }

  void TearDown() override {
    for (auto& server : servers_) server->Stop();
    std::vector<std::thread> garblers;
    {
      std::lock_guard<std::mutex> lock(accepted_mu_);
      for (net::ConnectionPtr& conn : held_) conn->Close();
      garblers.swap(garbler_threads_);
    }
    for (std::thread& t : garblers) t.join();
  }

  std::unique_ptr<net::Transport> transport_;  // destroyed last
  net::Transport& network_;
  dbapi::Environment env_;
  std::vector<std::unique_ptr<RlsServer>> servers_;
  // Filled by accept handlers, which may run on a transport thread.
  std::mutex accepted_mu_;
  std::vector<net::ConnectionPtr> held_;       // tarpit connections
  std::vector<std::thread> garbler_threads_;   // garbled-reply servers
};

INSTANTIATE_TEST_SUITE_P(Transports, ChaosTest,
                         ::testing::Values("inproc", "tcp://127.0.0.1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return info.index == 0 ? "InProc" : "Tcp";
                         });

// The acceptance scenario: black out the RLI mid-run. The LRC keeps
// serving client operations, marks the target unhealthy after repeated
// send failures (visible through GetStats), and — after the blackout
// lifts — the recovery pass reconverges the RLI with a forced full
// resend, no manual intervention.
TEST_P(ChaosTest, LrcServesThroughRliBlackoutAndReconverges) {
  net::FaultInjector* faults = network_.EnableFaultInjection(42);

  const std::string rli_addr = "chaos-rli:bo";
  const std::string lrc_addr = "chaos-lrc:bo";
  RlsServer* rli = StartRli(rli_addr);

  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{rli_addr});
  update.full_interval = 0ms;  // manual + recovery sends only
  update.rpc_timeout = 200ms;
  update.rpc_retry.max_attempts = 2;  // failed sends retry once
  update.unhealthy_after_failures = 2;
  update.target_backoff_initial = 50ms;
  update.target_backoff_max = 200ms;
  RlsServer* lrc = StartLrc(lrc_addr, update);

  std::unique_ptr<LrcClient> client;
  ASSERT_TRUE(LrcClient::Connect(&network_, lrc_addr, {}, &client).ok());

  // Healthy run: the RLI converges.
  ASSERT_TRUE(client->Create("lfn-before", "pfn-0").ok());
  ASSERT_TRUE(client->ForceUpdate().ok());
  std::vector<std::string> owners;
  ASSERT_TRUE(rli->rli_relational()->Query("lfn-before", &owners).ok());

  // Lights out on the RLI: in-flight sends are dropped, reconnects
  // refused.
  faults->Blackout(rli_addr);

  // The LRC remains fully available to clients throughout.
  ASSERT_TRUE(client->Create("lfn-during", "pfn-1").ok());
  ASSERT_TRUE(client->Query("lfn-during", &owners).ok());

  // Update sends fail (deadline, then refused reconnect) until the
  // target trips unhealthy; the per-RPC retry layer fires too.
  EXPECT_EQ(client->ForceUpdate().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(client->ForceUpdate().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(client->Create("lfn-during-2", "pfn-2").ok());

  GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  ASSERT_EQ(stats.targets.size(), 1u);
  EXPECT_FALSE(stats.targets[0].healthy);
  EXPECT_GE(stats.targets[0].consecutive_failures, 2u);
  EXPECT_GE(
      lrc->metrics_registry()->GetCounter("rpc_client_retries_total")->Value(),
      1u);
  EXPECT_GE(
      lrc->metrics_registry()->GetCounter("ss_send_failures_total")->Value(),
      2u);
  EXPECT_EQ(
      lrc->metrics_registry()->GetCounter("ss_target_unhealthy_total")->Value(),
      1u);
  EXPECT_GE(faults->drops() + faults->connects_refused(), 1u);

  // Heal. The scheduler's recovery pass owes the target a complete
  // resend and delivers it once the backoff expires.
  faults->ClearBlackout(rli_addr);
  EXPECT_TRUE(WaitFor(
      [&] {
        std::vector<std::string> found;
        return rli->rli_relational()->Query("lfn-during-2", &found).ok();
      },
      5000ms))
      << "RLI did not reconverge after heal";

  // The health bookkeeping lands just after the data does — poll.
  EXPECT_TRUE(WaitFor(
      [&] {
        return client->GetStats(&stats).ok() && stats.targets.size() == 1 &&
               stats.targets[0].healthy && stats.targets[0].full_resends >= 1;
      },
      2000ms))
      << "target did not report healthy after heal";
  EXPECT_GE(
      lrc->metrics_registry()->GetCounter("ss_target_recovered_total")->Value(),
      1u);
  EXPECT_GE(
      lrc->metrics_registry()->GetCounter("ss_full_resends_total")->Value(),
      1u);
  EXPECT_EQ(lrc->metrics_registry()->GetGauge("ss_unhealthy_targets")->Value(),
            0);

  // The update manager's own stats mirror the counters.
  UpdateStats ustats = lrc->update_manager()->stats();
  EXPECT_GE(ustats.send_failures, 2u);
  EXPECT_GE(ustats.full_resends, 1u);
}

// A partition pair blocks connects in both directions but leaves third
// parties untouched; healing restores traffic.
TEST_P(ChaosTest, PartitionPairIsSymmetricAndHealable) {
  net::FaultInjector* faults = network_.EnableFaultInjection(7);
  ASSERT_TRUE(
      network_.Listen("part-srv", [](net::ConnectionPtr conn) { conn->Close(); })
          .ok());

  faults->Partition("part-client", "part-srv");

  net::ConnectionPtr conn;
  EXPECT_EQ(network_
                .Connect("part-srv", net::LinkModel::Loopback(), &conn,
                         "part-client")
                .code(),
            ErrorCode::kUnavailable);
  // A third party still gets through.
  EXPECT_TRUE(network_
                  .Connect("part-srv", net::LinkModel::Loopback(), &conn,
                           "part-other")
                  .ok());

  faults->Heal("part-client", "part-srv");
  EXPECT_TRUE(network_
                  .Connect("part-srv", net::LinkModel::Loopback(), &conn,
                           "part-client")
                  .ok());
  EXPECT_EQ(faults->connects_refused(), 1u);
}

/// Echo server + lossy client used by the determinism tests below.
struct LossyFixture {
  explicit LossyFixture(uint64_t seed) : faults(network.EnableFaultInjection(seed)) {
    server = std::make_unique<net::RpcServer>(
        &network, "lossy-srv", net::ServerOptions{},
        [](const gsi::AuthContext&, uint16_t, const std::string& request,
           std::string* response) {
          *response = request;
          return Status::Ok();
        });
    EXPECT_TRUE(server->Start().ok());
  }

  net::InProcTransport network;
  net::FaultInjector* faults;
  std::unique_ptr<net::RpcServer> server;
};

/// Runs `calls` echo RPCs against a server that drops 30% of requests,
/// with deadline+retry riding over the losses. Returns the injector's
/// event log and per-call outcomes.
void RunLossyWorkload(uint64_t seed, int calls,
                      std::vector<net::FaultEvent>* events,
                      std::vector<ErrorCode>* outcomes, uint64_t* retries) {
  LossyFixture fx(seed);
  net::FaultPlan plan;
  plan.drop_probability = 0.3;
  fx.faults->SetPlan("lossy-srv", plan);

  net::ClientOptions options;
  options.identity = "lossy-client";
  options.call_timeout = 50ms;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff = 1ms;
  options.retry.max_backoff = 4ms;
  options.retry_seed = seed ^ 0xabcd;
  std::unique_ptr<net::RpcClient> client;
  ASSERT_TRUE(net::RpcClient::Connect(&fx.network, "lossy-srv", options, &client)
                  .ok());

  for (int i = 0; i < calls; ++i) {
    std::string response;
    const Status s = client->Call(1, "ping" + std::to_string(i), &response);
    outcomes->push_back(s.code());
    if (s.ok()) {
      EXPECT_EQ(response, "ping" + std::to_string(i));
    }
  }
  *retries = client->retries();
  *events = fx.faults->Events();
}

// Same fault seed => identical fault event sequence and identical
// per-call outcomes: chaos runs replay exactly.
TEST(ChaosLossyTest, DeterministicReplayUnderFixedSeed) {
  std::vector<net::FaultEvent> events_a, events_b;
  std::vector<ErrorCode> outcomes_a, outcomes_b;
  uint64_t retries_a = 0, retries_b = 0;
  RunLossyWorkload(/*seed=*/1234, /*calls=*/40, &events_a, &outcomes_a,
                   &retries_a);
  RunLossyWorkload(/*seed=*/1234, /*calls=*/40, &events_b, &outcomes_b,
                   &retries_b);

  ASSERT_FALSE(events_a.empty()) << "expected injected drops at p=0.3";
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(outcomes_a, outcomes_b);
  EXPECT_EQ(retries_a, retries_b);
  EXPECT_GE(retries_a, 1u);
  for (const net::FaultEvent& e : events_a) {
    EXPECT_EQ(e.kind, net::FaultKind::kDrop);
    EXPECT_EQ(e.to, "lossy-srv");
  }
}

// Retry + reconnect ride over a server that force-closes every
// connection after 3 messages: all calls still succeed.
TEST(ChaosLossyTest, RetryReconnectsThroughForcedDisconnects) {
  LossyFixture fx(/*seed=*/9);
  net::FaultPlan plan;
  plan.disconnect_after_messages = 3;
  fx.faults->SetPlan("lossy-srv", plan);

  net::ClientOptions options;
  options.identity = "lossy-client";
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 1ms;
  std::unique_ptr<net::RpcClient> client;
  ASSERT_TRUE(net::RpcClient::Connect(&fx.network, "lossy-srv", options, &client)
                  .ok());

  for (int i = 0; i < 10; ++i) {
    std::string response;
    EXPECT_TRUE(client->Call(1, "m", &response).ok()) << "call " << i;
  }
  EXPECT_GE(fx.faults->disconnects(), 2u);
  EXPECT_GE(client->reconnects(), 2u);
}

// The typed error taxonomy: a vanished listener is retryable
// UNAVAILABLE; an expired deadline is retryable TIMEOUT; a garbled
// reply is non-retryable PROTOCOL. Callers can tell them apart.
TEST_P(ChaosTest, ErrorTaxonomyDistinguishesFailureModes) {
  // Vanished listener -> UNAVAILABLE (was NotFound pre-taxonomy).
  net::ClientOptions options;
  std::unique_ptr<net::RpcClient> client;
  EXPECT_EQ(
      net::RpcClient::Connect(&network_, "nobody-home", options, &client).code(),
      ErrorCode::kUnavailable);
  EXPECT_TRUE(rlscommon::IsRetryableError(ErrorCode::kUnavailable));
  EXPECT_TRUE(rlscommon::IsRetryableError(ErrorCode::kTimeout));
  EXPECT_FALSE(rlscommon::IsRetryableError(ErrorCode::kProtocol));
  EXPECT_FALSE(rlscommon::IsRetryableError(ErrorCode::kNotFound));

  // Deadline expiry -> TIMEOUT. A server that never answers: a raw
  // listener that accepts and holds the connection open.
  ASSERT_TRUE(network_
                  .Listen("tarpit",
                          [this](net::ConnectionPtr conn) {
                            std::lock_guard<std::mutex> lock(accepted_mu_);
                            held_.push_back(std::move(conn));
                          })
                  .ok());
  options.call_timeout = 50ms;
  EXPECT_EQ(net::RpcClient::Connect(&network_, "tarpit", options, &client).code(),
            ErrorCode::kTimeout);

  // Garbled reply -> PROTOCOL. A listener that answers every request
  // with a malformed error frame.
  ASSERT_TRUE(network_
                  .Listen("garbler",
                          [this](net::ConnectionPtr conn) {
                            std::lock_guard<std::mutex> lock(accepted_mu_);
                            garbler_threads_.emplace_back(
                                [c = std::shared_ptr<net::Connection>(
                                     conn.release())] {
                                  net::Message msg;
                                  while (c->Recv(&msg).ok()) {
                                    net::Message reply;
                                    reply.request_id = msg.request_id;
                                    reply.opcode = msg.opcode;
                                    reply.flags = net::Message::kFlagResponse |
                                                  net::Message::kFlagError;
                                    reply.payload = "";  // undecodable error
                                    if (!c->Send(std::move(reply)).ok()) break;
                                  }
                                });
                          })
                  .ok());
  options.call_timeout = 0ms;
  EXPECT_EQ(net::RpcClient::Connect(&network_, "garbler", options, &client).code(),
            ErrorCode::kProtocol);
}

}  // namespace
}  // namespace rls
