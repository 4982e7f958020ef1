// Overload protection acceptance tests: under sustained storm load the
// server sheds with UNAVAILABLE + retry-after instead of collapsing its
// queues, admitted requests keep a bounded tail, per-DN rate limits
// isolate tenants, and the priority lane keeps soft-state and
// monitoring traffic flowing through a client storm. The queue-full and
// priority-lane tests run on both transports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"
#include "rls/admission.h"
#include "rls/client.h"
#include "rls/protocol.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;
using rlscommon::Status;

net::ClientOptions NoRetryClient(const std::string& dn = "") {
  net::ClientOptions options;
  options.credential.dn = dn;
  options.retry.max_attempts = 1;
  return options;
}

/// The execution-slot tests that also run over sockets, where a reader
/// waits for a slot in the middle of its reply batching.
class OverloadTransportTest : public ::testing::TestWithParam<const char*> {
 protected:
  OverloadTransportTest() : transport_(net::MakeTransport(GetParam())) {}

  std::unique_ptr<net::Transport> transport_;
};

INSTANTIATE_TEST_SUITE_P(Transports, OverloadTransportTest,
                         ::testing::Values("inproc", "tcp://127.0.0.1"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return info.index == 0 ? "InProc" : "Tcp";
                         });

TEST_P(OverloadTransportTest, QueueFullShedsWithRetryAfter) {
  net::Transport& network = *transport_;
  obs::Registry registry;
  net::ServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  options.shed_retry_after = std::chrono::milliseconds(25);
  options.metrics = &registry;
  net::RpcServer server(&network, "srv:shed", options,
                        [](const gsi::AuthContext&, uint16_t,
                           const std::string&, std::string*) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                          return Status::Ok();
                        });
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> ok{0}, shed{0}, hinted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      std::unique_ptr<net::RpcClient> rpc;
      ASSERT_TRUE(
          net::RpcClient::Connect(&network, "srv:shed", NoRetryClient(), &rpc)
              .ok());
      for (int i = 0; i < 5; ++i) {
        Status s = rpc->Call(77, "", nullptr);
        if (s.ok()) {
          ok.fetch_add(1);
        } else {
          ASSERT_EQ(s.code(), ErrorCode::kUnavailable) << s.ToString();
          shed.fetch_add(1);
          if (s.retry_after() >= std::chrono::milliseconds(25)) {
            hinted.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // 8 clients against 1 slot + 1 waiting reader: work got done AND load
  // got shed, and every shed carried the configured retry-after hint.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(hinted.load(), shed.load());
  EXPECT_EQ(obs::SampleValue(registry.TakeSnapshot().samples, "rpc_shed_total",
                             obs::Label("reason", "queue_full")),
            shed.load());
  server.Stop();
}

TEST(OverloadTest, AdmittedTailStaysBounded) {
  net::InProcTransport network;
  net::ServerOptions options;
  options.workers = 2;
  options.queue_depth = 2;
  net::RpcServer server(&network, "srv:tail", options,
                        [](const gsi::AuthContext&, uint16_t,
                           const std::string&, std::string*) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(2));
                          return Status::Ok();
                        });
  ASSERT_TRUE(server.Start().ok());

  // Unloaded baseline: one client, no contention.
  rlscommon::LatencyHistogram unloaded;
  {
    std::unique_ptr<net::RpcClient> rpc;
    ASSERT_TRUE(
        net::RpcClient::Connect(&network, "srv:tail", NoRetryClient(), &rpc)
            .ok());
    for (int i = 0; i < 20; ++i) {
      rlscommon::Stopwatch timer;
      ASSERT_TRUE(rpc->Call(77, "", nullptr).ok());
      unloaded.Record(timer.Elapsed());
    }
  }

  // Storm: 12 clients versus 2 slots + 2 waiting readers. Rejected calls
  // don't count — the promise is about the requests the server chose
  // to admit.
  rlscommon::LatencyHistogram admitted;
  std::mutex admitted_mu;
  std::atomic<int> shed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 12; ++c) {
    clients.emplace_back([&] {
      std::unique_ptr<net::RpcClient> rpc;
      ASSERT_TRUE(
          net::RpcClient::Connect(&network, "srv:tail", NoRetryClient(), &rpc)
              .ok());
      for (int i = 0; i < 25; ++i) {
        rlscommon::Stopwatch timer;
        Status s = rpc->Call(77, "", nullptr);
        if (s.ok()) {
          std::lock_guard<std::mutex> lock(admitted_mu);
          admitted.Record(timer.Elapsed());
        } else {
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_GT(shed.load(), 0);  // the storm did exceed capacity
  const auto base = unloaded.GetSnapshot();
  const auto storm = admitted.GetSnapshot();
  ASSERT_GT(storm.count, 0u);
  // Acceptance: admitted p99 within 5x of the unloaded p99. An admitted
  // request waits for at most queue_depth/workers service times, so the
  // bound holds structurally; the baseline is floored at one 4096us
  // histogram bucket to keep an unrealistically fast unloaded
  // measurement from turning scheduler noise into a flake.
  const uint64_t baseline_p99 = std::max<uint64_t>(base.p99_us, 4096);
  EXPECT_LE(storm.p99_us, 5 * baseline_p99)
      << "unloaded " << unloaded.ToString() << " vs admitted "
      << admitted.ToString();
}

TEST(OverloadTest, PerDnRateLimitIsolatesTenants) {
  net::InProcTransport network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "rls:ratelimit";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://ratelimit_lrc";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  config.limits.workers = 2;
  config.limits.queue_depth = 256;  // ample: only the buckets shed here
  config.limits.per_dn_rate = 50;
  config.limits.per_dn_burst = 10;
  config.limits.retry_after = std::chrono::milliseconds(10);
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::string query;
  NameQueryRequest req;
  req.name = "nosuch";
  req.Encode(&query);

  // The heavy tenant burns through its burst; most of its traffic sheds
  // with a usable retry-after hint.
  std::unique_ptr<net::RpcClient> heavy;
  ASSERT_TRUE(net::RpcClient::Connect(&network, config.address,
                                      NoRetryClient("/CN=heavy"), &heavy)
                  .ok());
  int heavy_shed = 0;
  for (int i = 0; i < 100; ++i) {
    std::string response;
    Status s = heavy->Call(kLrcExists, query, &response);
    if (s.code() == ErrorCode::kUnavailable) {
      EXPECT_GT(s.retry_after().count(), 0);
      ++heavy_shed;
    }
  }
  EXPECT_GT(heavy_shed, 50);

  // A different DN has its own untouched bucket: the heavy tenant's
  // storm must not cost the light tenant a single request.
  std::unique_ptr<net::RpcClient> light;
  ASSERT_TRUE(net::RpcClient::Connect(&network, config.address,
                                      NoRetryClient("/CN=light"), &light)
                  .ok());
  for (int i = 0; i < 5; ++i) {
    std::string response;
    Status s = light->Call(kLrcExists, query, &response);
    EXPECT_NE(s.code(), ErrorCode::kUnavailable) << s.ToString();
  }

  // Sheds are visible to operators through server stats.
  EXPECT_GE(obs::SampleValue(server.GetStatsSnapshot().metrics, "rpc_shed_total", obs::kAnyLabels),
            heavy_shed);
  server.Stop();
}

TEST_P(OverloadTransportTest, PriorityLaneSurvivesClientStorm) {
  net::Transport& network = *transport_;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "rls:storm";
  config.rli.enabled = true;
  config.rli.dsn = "mysql://storm_rli";
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  config.limits.workers = 2;
  config.limits.queue_depth = 2;  // normal lane sheds under the storm
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::string query;
  NameQueryRequest req;
  req.name = "stormed";
  req.Encode(&query);

  std::atomic<bool> stop{false};
  std::vector<std::thread> storm;
  for (int c = 0; c < 8; ++c) {
    storm.emplace_back([&] {
      std::unique_ptr<net::RpcClient> rpc;
      ASSERT_TRUE(net::RpcClient::Connect(&network, config.address,
                                          NoRetryClient("/CN=storm"), &rpc)
                      .ok());
      while (!stop.load()) {
        std::string response;
        (void)rpc->Call(kRliQueryLfn, query, &response);
      }
    });
  }

  // While the storm runs: soft-state updates and monitoring probes ride
  // the priority lane and must never be shed.
  std::unique_ptr<net::RpcClient> lrc;
  ASSERT_TRUE(net::RpcClient::Connect(&network, config.address,
                                      NoRetryClient("/CN=lrc"), &lrc)
                  .ok());
  std::unique_ptr<net::RpcClient> probe;
  ASSERT_TRUE(net::RpcClient::Connect(&network, config.address,
                                      NoRetryClient("/CN=monitor"), &probe)
                  .ok());
  GetStatsResponse snapshot;
  for (int i = 0; i < 30; ++i) {
    IncrementalUpdate update;
    update.lrc_url = "lrc:storm-source";
    update.added.push_back("ss-name-" + std::to_string(i));
    std::string payload;
    update.Encode(&payload);
    ASSERT_TRUE(lrc->Call(kSsIncremental, payload, nullptr).ok())
        << "soft-state update " << i << " was shed";

    std::string stats_payload;
    ASSERT_TRUE(probe->Call(kServerGetStats, "", &stats_payload).ok())
        << "GetStats probe " << i << " was shed";
    ASSERT_TRUE(GetStatsResponse::Decode(stats_payload, &snapshot).ok());
  }
  stop.store(true);
  for (auto& t : storm) t.join();

  // Every soft-state update landed in the index despite the storm.
  std::vector<std::string> lrcs;
  ASSERT_TRUE(server.rli_relational()->Query("ss-name-29", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "lrc:storm-source");
  // And the shed counter made it into the introspection snapshot.
  EXPECT_GT(obs::SampleValue(snapshot.metrics, "rpc_shed_total", obs::kAnyLabels), 0);
  server.Stop();
}

TEST(OverloadTest, FlightRecorderShowsQueueWaitDominatingUnderStorm) {
  // The flight recorder is process-global; start clean and leave clean.
  obs::SpanRecorder::Global().Enable(4096);
  obs::SpanRecorder::Global().Clear();

  net::InProcTransport network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "rls:tracedstorm";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://tracedstorm_lrc";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  // One slot, a deep wait line, no shedding: every admitted request of
  // the storm spends most of its life waiting for the single slot.
  config.limits.workers = 1;
  config.limits.queue_depth = 256;
  config.obs.trace_capacity = 4096;
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::string query;
  NameQueryRequest req;
  req.name = "stormed";
  req.Encode(&query);

  std::vector<std::thread> storm;
  for (int c = 0; c < 8; ++c) {
    storm.emplace_back([&] {
      std::unique_ptr<net::RpcClient> rpc;
      ASSERT_TRUE(net::RpcClient::Connect(&network, config.address,
                                          NoRetryClient("/CN=storm"), &rpc)
                      .ok());
      for (int i = 0; i < 40; ++i) {
        std::string response;
        (void)rpc->Call(kLrcExists, query, &response);
      }
    });
  }
  for (auto& t : storm) t.join();

  // Post-mortem, over the wire: fetch the storm's slowest lrc_exists
  // traces from the flight recorder's slow log.
  std::unique_ptr<LrcClient> admin;
  ASSERT_TRUE(
      LrcClient::Connect(&network, config.address, {}, &admin).ok());
  GetTracesRequest filter;
  filter.method = "lrc_exists";
  filter.source = TraceSource::kSlowLog;
  GetTracesResponse traces;
  ASSERT_TRUE(admin->GetTraces(filter, &traces).ok());
  ASSERT_FALSE(traces.spans.empty());

  // The stage breakdown must tell the overload story: among the slowest
  // storm-era traces, queue_wait (exec start minus admission) dominates
  // the wall time of at least one. Scanning the returned slow log — not
  // just the single slowest span — keeps the assertion meaningful on an
  // oversubscribed CI box, where the very slowest request can owe its
  // rank to a preemption gap in some other stage.
  uint64_t best_queue_wait_us = 0, best_duration_us = 0;
  bool saw_queue_wait = false;
  for (const TraceSpan& span : traces.spans) {
    uint64_t admission_us = 0, queue_wait_us = 0;
    for (const TraceHop& hop : span.hops) {
      if (hop.name == "admission") admission_us = hop.offset_us;
      if (hop.name == "queue_wait") {
        queue_wait_us = hop.offset_us - admission_us;
        saw_queue_wait = true;
      }
    }
    if (span.duration_us > 0 &&
        queue_wait_us * best_duration_us >= best_queue_wait_us * span.duration_us) {
      best_queue_wait_us = queue_wait_us;
      best_duration_us = span.duration_us;
    }
  }
  ASSERT_TRUE(saw_queue_wait);
  ASSERT_GT(best_duration_us, 0u);
  EXPECT_GE(best_queue_wait_us * 2, best_duration_us)
      << "best queue_wait fraction: " << best_queue_wait_us << "us of "
      << best_duration_us << "us total";

  server.Stop();
  obs::SpanRecorder::Global().Disable();
  obs::SpanRecorder::Global().Clear();
}

}  // namespace
}  // namespace rls
