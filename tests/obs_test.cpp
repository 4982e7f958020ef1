// Observability layer: metrics registry, trace propagation, JSONL
// exporter and the GetStats introspection RPC.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rls/bootstrap.h"
#include "rls/client.h"
#include "rls/protocol.h"
#include "rls/rls_server.h"

namespace obs {
namespace {

TEST(RegistryTest, CounterConcurrencyIsExact) {
  Registry registry;
  Counter* counter = registry.GetCounter("test_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), uint64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  Registry registry;
  Counter* a = registry.GetCounter("requests", Label("method", "add"));
  Counter* b = registry.GetCounter("requests", Label("method", "add"));
  Counter* c = registry.GetCounter("requests", Label("method", "query"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, PrometheusRenderingGolden) {
  Registry registry;
  registry.GetCounter("adds_total")->Increment(3);
  registry.GetGauge("queue_depth")->Set(-2);
  registry.GetCounter("hits_total", Label("pool", "lrc"))->Increment();
  Histogram* hist = registry.GetHistogram("latency_us");
  hist->RecordMicros(100);
  hist->RecordMicros(100);
  const std::string expected =
      "adds_total 3\n"
      "hits_total{pool=\"lrc\"} 1\n"
      "latency_us_count 2\n"
      "latency_us_mean 100\n"
      "latency_us_p50 127\n"
      "latency_us_p95 127\n"
      "latency_us_p99 127\n"
      "latency_us_p999 127\n"
      "latency_us_max 127\n"
      "queue_depth -2\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(RegistryTest, JsonRenderingSplicesExtraFields) {
  Registry registry;
  registry.GetCounter("adds_total")->Increment(7);
  const std::string json = registry.RenderJson("\"server\": \"lrc:1\"");
  EXPECT_EQ(json,
            "{\"server\": \"lrc:1\", \"metrics\": "
            "[{\"name\": \"adds_total\", \"value\": 7}]}");
}

TEST(RegistryTest, CallbackGaugeEvaluatedAtSnapshotTime) {
  Registry registry;
  int backing = 5;
  registry.RegisterCallback("store_size", "", [&] { return double(backing); });
  Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 5.0);
  backing = 9;
  EXPECT_DOUBLE_EQ(registry.TakeSnapshot().samples[0].value, 9.0);
  registry.UnregisterCallback("store_size", "");
  EXPECT_EQ(registry.size(), 0u);
  registry.UnregisterCallback("store_size", "");  // tolerates missing
}

TEST(TraceTest, NewTraceIdNeverZeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = NewTraceId();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(TraceIdToString(0x1234).size(), 16u);
}

TEST(TraceTest, ScopedTraceInstallsAndRestores) {
  EXPECT_FALSE(CurrentTrace().valid());
  {
    ScopedTrace outer(TraceContext{42, 1});
    EXPECT_EQ(CurrentTrace().trace_id, 42u);
    {
      ScopedTrace inner(TraceContext{43, 2});
      EXPECT_EQ(CurrentTrace().trace_id, 43u);
    }
    EXPECT_EQ(CurrentTrace().trace_id, 42u);
    EXPECT_EQ(CurrentTrace().span_id, 1u);
  }
  EXPECT_FALSE(CurrentTrace().valid());
}

TEST(TraceTest, SpanMeasuresElapsedAndSlowThresholdRoundTrips) {
  SetSlowSpanThreshold(std::chrono::microseconds(250));
  EXPECT_EQ(GetSlowSpanThreshold(), std::chrono::microseconds(250));
  {
    ScopedTrace trace;
    Span span("test", "slow_hop");
    span.Hop("midpoint");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(span.Elapsed(), std::chrono::microseconds(250));
    // Destructor logs the slow-span WARN with hop timing; must not crash.
  }
  SetSlowSpanThreshold(std::chrono::microseconds(0));
}

TEST(ExporterTest, AppendsOneLinePerExport) {
  const std::string path =
      "/tmp/rls_obs_exporter_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  Registry registry;
  registry.GetCounter("exports_total")->Increment();
  JsonlExporter exporter({path, std::chrono::milliseconds(60000)},
                         [&] { return registry.RenderJson(); });
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_TRUE(exporter.ExportNow().ok());
  exporter.Stop();  // writes one final snapshot
  EXPECT_EQ(exporter.lines_written(), 2u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  int lines = 0;
  while (std::fgets(line, sizeof(line), f)) {
    ++lines;
    EXPECT_NE(std::string(line).find("exports_total"), std::string::npos);
  }
  std::fclose(f);
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// The exporter sleeps on its clock: one line per period of that clock,
// none before the first period is over.
TEST(ExporterTest, ExportsOncePerPeriodOfItsClock) {
  using namespace std::chrono_literals;
  const std::string path =
      "/tmp/rls_obs_exporter_clock_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  rlscommon::ManualClock clock;
  JsonlExporter exporter({path, 1000ms}, [] { return std::string("{}"); }, &clock);
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  clock.Advance(999ms);
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  EXPECT_EQ(exporter.lines_written(), 0u);
  for (uint64_t periods = 1; periods <= 3; ++periods) {
    clock.Advance(periods == 1 ? 1ms : 1000ms);
    ASSERT_TRUE(clock.WaitForParked(1, 10s));
    EXPECT_EQ(exporter.lines_written(), periods);
  }
  exporter.Stop();  // writes one final snapshot
  EXPECT_EQ(exporter.lines_written(), 4u);
  std::remove(path.c_str());
}

TEST(ExporterTest, DisabledWithoutPathConfigured) {
  JsonlExporter exporter({"", std::chrono::milliseconds(10)},
                         [] { return std::string("{}"); });
  ASSERT_TRUE(exporter.Start().ok());
  exporter.Stop();
  EXPECT_EQ(exporter.lines_written(), 0u);
}

// The ISSUE acceptance test: GetStats on a combined LRC+RLI server that
// has served traffic returns at least 12 distinct metric names covering
// every instrumented subsystem (rpc, connection pool, LRC, RLI, update
// manager).
TEST(GetStatsTest, SnapshotSpansAllSubsystems) {
  net::InProcTransport network;
  dbapi::Environment env;
  rls::RlsServerConfig config;
  config.address = "obs:1";
  config.url = "obs:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://obs_lrc";
  config.lrc.update.mode = rls::UpdateMode::kFull;
  config.lrc.update.targets.push_back(rls::UpdateTarget{"obs:1"});  // self-update
  config.rli.enabled = true;
  config.rli.dsn = "mysql://obs_rli";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "obs:1", {}, &client).ok());
  ASSERT_TRUE(client->Create("lfn0", "pfn0").ok());
  ASSERT_TRUE(client->ForceUpdate().ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(client->Query("lfn0", &targets).ok());

  rls::GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  EXPECT_EQ(stats.role, "lrc+rli");
  EXPECT_GE(stats.uptime_seconds, 0.0);
  EXPECT_EQ(stats.vitals.mapping_count, 1u);
  EXPECT_GT(stats.vitals.requests_served, 0u);
  EXPECT_GE(stats.vitals.updates_sent, 1u);
  EXPECT_GE(stats.vitals.updates_received, 1u);
  ASSERT_EQ(stats.targets.size(), 1u);
  EXPECT_EQ(stats.targets[0].address, "obs:1");
  EXPECT_GE(stats.targets[0].updates_sent, 1u);
  EXPECT_GE(stats.targets[0].seconds_since_last, 0.0);

  std::set<std::string> names;
  for (const rls::MetricSample& m : stats.metrics) names.insert(m.name);
  EXPECT_GE(names.size(), 12u);
  // One representative name per subsystem.
  const char* expected[] = {
      "rpc_requests_total",            // net::rpc
      "rpc_active_connections",        // net::rpc callback gauge
      "db_pool_acquires_total",        // dbapi::pool
      "lrc_mappings",                  // LRC store
      "rli_associations",              // RLI store
      "ss_updates_sent_total",         // update manager
      "rpc_request_latency_us",        // per-method histograms
      "server_uptime_seconds",
  };
  for (const char* name : expected) {
    EXPECT_TRUE(names.count(name)) << "missing metric " << name;
  }

  // Codec round trip of the full response.
  std::string bytes;
  stats.Encode(&bytes);
  rls::GetStatsResponse decoded;
  ASSERT_TRUE(rls::GetStatsResponse::Decode(bytes, &decoded).ok());
  EXPECT_EQ(decoded.role, stats.role);
  EXPECT_EQ(decoded.metrics.size(), stats.metrics.size());
  EXPECT_EQ(decoded.targets.size(), 1u);
  EXPECT_EQ(decoded.targets[0].address, "obs:1");
  EXPECT_FALSE(rls::GetStatsResponse::Decode("junk", &decoded).ok());

  server.Stop();
}

// Group-commit observability: a server with wal_group_commit on must
// surface the batching counters through GetStats (WalRecoveryStatus)
// and the wal_group_size / wal_sync_wait_us / wal_group_commits_total
// instruments through the registry, and the codec must round-trip the
// new fields.
TEST(GetStatsTest, GroupCommitWalCountersSurface) {
  net::InProcTransport network;
  dbapi::Environment env;
  rls::RlsServerConfig config;
  config.address = "obs:gc";
  config.url = "obs:gc";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://obs_gc";
  config.lrc.wal_group_commit = true;
  // EnsureDatabases builds the LRC database with the group-commit
  // profile (in-memory log: empty wal_dir).
  ASSERT_TRUE(rls::EnsureDatabases(config, env, "").ok());
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());
  // Durable flushes so sync waits actually happen (penalty 0: fast).
  env.Find(config.lrc.dsn)->SetDurableFlush(true);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&network, t] {
      std::unique_ptr<rls::LrcClient> client;
      ASSERT_TRUE(rls::LrcClient::Connect(&network, "obs:gc", {}, &client).ok());
      for (int i = 0; i < 10; ++i) {
        std::string name = "gc" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(client->Create(name, "pfn://" + name).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "obs:gc", {}, &client).ok());
  rls::GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  EXPECT_EQ(stats.wal.group_commit, 1);
  EXPECT_GE(stats.wal.commits, 40u);
  EXPECT_GE(stats.wal.group_commits, 1u);
  EXPECT_LE(stats.wal.syncs, stats.wal.commits);

  std::set<std::string> names;
  for (const rls::MetricSample& m : stats.metrics) names.insert(m.name);
  for (const char* name :
       {"wal_group_size", "wal_sync_wait_us", "wal_group_commits_total",
        "wal_commits", "wal_syncs"}) {
    EXPECT_TRUE(names.count(name)) << "missing metric " << name;
  }

  std::string bytes;
  stats.Encode(&bytes);
  rls::GetStatsResponse decoded;
  ASSERT_TRUE(rls::GetStatsResponse::Decode(bytes, &decoded).ok());
  EXPECT_EQ(decoded.wal.group_commit, 1);
  EXPECT_EQ(decoded.wal.commits, stats.wal.commits);
  EXPECT_EQ(decoded.wal.syncs, stats.wal.syncs);
  EXPECT_EQ(decoded.wal.group_commits, stats.wal.group_commits);
  server.Stop();
}

TEST(GetStatsTest, RequiresStatsPrivilege) {
  net::InProcTransport network;
  dbapi::Environment env;
  gsi::Gridmap gridmap;
  ASSERT_TRUE(gridmap.AddEntry("/CN=Reader", "reader").ok());
  gsi::Acl acl;
  ASSERT_TRUE(acl.AddEntry("reader", {gsi::Privilege::kLrcRead}).ok());
  rls::RlsServerConfig config;
  config.address = "obs:acl";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://obs_acl";
  config.auth = gsi::AuthManager::Secured(std::move(gridmap), std::move(acl),
                                          std::chrono::microseconds(0));
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  rls::ClientConfig reader;
  reader.credential.dn = "/CN=Reader";
  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "obs:acl", reader, &client).ok());
  rls::GetStatsResponse stats;
  rlscommon::Status s = client->GetStats(&stats);
  EXPECT_FALSE(s.ok());
  server.Stop();
}

}  // namespace
}  // namespace obs
