// Observability layer: metrics registry, trace propagation, JSONL
// exporter and the GetStats introspection RPC.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/clock.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"
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

TEST(RegistryTest, SampleValueReadsEveryKind) {
  Registry registry;
  registry.GetCounter("adds_total")->Increment(3);
  registry.GetGauge("queue_depth")->Set(-2);
  registry.GetCounter("hits_total", Label("pool", "lrc"))->Increment();
  registry.GetCounter("hits_total", Label("pool", "rli"))->Increment(4);
  Histogram* hist = registry.GetHistogram("latency_us");
  hist->RecordMicros(100);
  hist->RecordMicros(100);
  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(SampleValue(snap.samples, "adds_total"), 3);
  EXPECT_EQ(SampleValue(snap.samples, "queue_depth"), -2);
  EXPECT_EQ(SampleValue(snap.samples, "hits_total", Label("pool", "lrc")), 1);
  EXPECT_EQ(SampleValue(snap.samples, "hits_total", kAnyLabels), 5) << "sums the family";
  EXPECT_EQ(SampleValue(snap.samples, "hits_total"), 0) << "no unlabeled series";
  EXPECT_EQ(SampleValue(snap.samples, "latency_us"), 2) << "a histogram's value is its count";
  EXPECT_EQ(SampleValue(snap.samples, "missing_total", kAnyLabels), 0);
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
  EXPECT_GE(SampleValue(stats.metrics, "server_uptime_seconds"), 0.0);
  EXPECT_EQ(SampleValue(stats.metrics, "lrc_mappings"), 1);
  EXPECT_GT(SampleValue(stats.metrics, "rpc_requests_total", kAnyLabels), 0);
  EXPECT_GE(SampleValue(stats.metrics, "ss_updates_sent_total", kAnyLabels), 1);
  EXPECT_GE(SampleValue(stats.metrics, "rli_updates_received_total"), 1);
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
// surface its batching through GetStats' samples — wal_group_max_commits,
// wal_commits, wal_syncs, and the wal_group_size / wal_sync_wait_us
// histograms — and the codec must round-trip them.
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
  EXPECT_GT(SampleValue(stats.metrics, "wal_group_max_commits"), 1) << "group commit on";
  EXPECT_GE(SampleValue(stats.metrics, "wal_commits"), 40);
  EXPECT_GE(SampleValue(stats.metrics, "wal_group_size"), 1) << "batches flushed";
  EXPECT_LE(SampleValue(stats.metrics, "wal_syncs"), SampleValue(stats.metrics, "wal_commits"));

  std::set<std::string> names;
  for (const rls::MetricSample& m : stats.metrics) names.insert(m.name);
  for (const char* name :
       {"wal_group_size", "wal_sync_wait_us", "wal_group_max_commits", "wal_commits",
        "wal_syncs"}) {
    EXPECT_TRUE(names.count(name)) << "missing metric " << name;
  }

  std::string bytes;
  stats.Encode(&bytes);
  rls::GetStatsResponse decoded;
  ASSERT_TRUE(rls::GetStatsResponse::Decode(bytes, &decoded).ok());
  for (const char* name : {"wal_group_max_commits", "wal_commits", "wal_syncs", "wal_group_size"}) {
    EXPECT_EQ(SampleValue(decoded.metrics, name), SampleValue(stats.metrics, name)) << name;
  }
  server.Stop();
}

// Every value GetStats once carried in a field of its own is one
// registry sample, equal to what its store, WAL or recorder reports: a
// combined LRC+RLI server with a replayed group-commit WAL, a Bloom
// store, a rate limit that sheds and the flight recorder on.
TEST(GetStatsTest, EveryFormerFieldIsASample) {
  const std::string wal_dir =
      ::testing::TempDir() + "/rls_obs_stats_" + std::to_string(::getpid());
  std::filesystem::remove_all(wal_dir);
  ASSERT_TRUE(std::filesystem::create_directories(wal_dir));
  rls::RlsServerConfig config;
  config.address = "obs:all";
  config.url = "obs:all";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://obs_all_lrc";
  config.lrc.wal_recovery = true;
  config.lrc.wal_group_commit = true;
  config.rli.enabled = true;
  config.rli.dsn = "mysql://obs_all_rli";
  {
    // A first life leaves committed mappings in the log.
    dbapi::Environment env;
    ASSERT_TRUE(rls::EnsureDatabases(config, env, wal_dir).ok());
    std::unique_ptr<rls::LrcStore> store;
    ASSERT_TRUE(rls::LrcStore::Create(env, config.lrc.dsn, &store).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store->CreateMapping("old" + std::to_string(i), "pfn").ok());
    }
  }

  // The second life replays them.
  rlscommon::ManualClock clock;
  net::InProcTransport network(&clock);
  dbapi::Environment env;
  ASSERT_TRUE(rls::EnsureDatabases(config, env, wal_dir).ok());
  config.lrc.update.mode = rls::UpdateMode::kBloom;
  config.lrc.update.targets.push_back(rls::UpdateTarget{"obs:all"});  // self-update
  config.limits.per_dn_rate = 1;  // the clock stands still: no refill
  config.limits.per_dn_burst = 4;  // two creates at two tokens each
  config.obs.trace_capacity = 64;
  rls::RlsServer server(&network, config, &env, &clock);
  ASSERT_TRUE(server.Start().ok());
  clock.Advance(std::chrono::seconds(5));

  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "obs:all", {}, &client).ok());
  int shed = 0;
  for (int i = 0; i < 3; ++i) {
    if (!client->Create("new" + std::to_string(i), "pfn").ok()) ++shed;
  }
  EXPECT_EQ(shed, 1);
  ASSERT_TRUE(server.update_manager()->ForceFullUpdate().ok());
  ASSERT_TRUE(server.rli_relational()->UpsertBatch({"r0", "r1", "r2"}, "rls://other",
                                                   clock.NowMicros()).ok());

  // A server records a request's span after it sends the reply, so the
  // last request's span can land while the snapshot is taken: take it
  // again until the recorder holds still around it.
  rls::GetStatsResponse stats;
  obs::SpanRecorder::Stats recorder;
  for (;;) {
    const obs::SpanRecorder::Stats before = obs::SpanRecorder::Global().GetStats();
    stats = server.GetStatsSnapshot();
    recorder = obs::SpanRecorder::Global().GetStats();
    if (recorder.recorded == before.recorded) break;
  }
  std::set<std::string> names;
  for (const rls::MetricSample& m : stats.metrics) names.insert(m.name);
  for (const char* name :
       {"server_uptime_seconds", "lrc_logical_names", "lrc_mappings", "rli_logical_names",
        "rli_associations", "rli_bloom_filters", "rpc_requests_total", "rpc_shed_total",
        "rli_updates_received_total", "ss_updates_sent_total", "trace_recorder_depth",
        "trace_recorder_dropped", "trace_recorder_capacity", "wal_recovery_enabled",
        "wal_recovered_txns", "wal_records_applied", "wal_snapshot_rows",
        "wal_torn_tail_bytes", "wal_checksum_failures", "wal_last_lsn", "wal_recover_us",
        "wal_group_max_commits", "wal_commits", "wal_syncs", "wal_group_size"}) {
    EXPECT_TRUE(names.count(name)) << "missing metric " << name;
  }
  auto expect = [&](std::string_view name, double want, std::string_view labels = "") {
    EXPECT_EQ(SampleValue(stats.metrics, name, labels), want) << name << "{" << labels << "}";
  };
  expect("server_uptime_seconds", 5);
  rls::LrcStore* lrc = server.lrc_store();
  expect("lrc_logical_names", static_cast<double>(lrc->LogicalNameCount()));
  expect("lrc_mappings", static_cast<double>(lrc->MappingCount()));
  EXPECT_EQ(lrc->MappingCount(), 7u) << "five replayed, two created";
  expect("rli_logical_names", static_cast<double>(server.rli_relational()->LogicalNameCount()));
  expect("rli_associations", static_cast<double>(server.rli_relational()->AssociationCount()));
  expect("rli_bloom_filters", static_cast<double>(server.rli_bloom()->filter_count()));
  EXPECT_EQ(server.rli_bloom()->filter_count(), 1u);

  // Requests and sheds: the client's view, and the admission lanes'.
  expect("rpc_shed_total", shed, obs::Label("reason", "rate_limit"));
  expect("rpc_shed_total", shed, kAnyLabels);
  expect("rpc_requests_total",
         SampleValue(stats.metrics, "admission_admitted_total", kAnyLabels), kAnyLabels);
  EXPECT_GT(SampleValue(stats.metrics, "rpc_requests_total", kAnyLabels), 0);
  // The server's updates go to itself.
  expect("rli_updates_received_total",
         SampleValue(stats.metrics, "ss_updates_sent_total", kAnyLabels));
  expect("ss_updates_sent_total", 1, obs::Label("mode", "bloom"));

  expect("trace_recorder_depth", static_cast<double>(recorder.depth));
  expect("trace_recorder_dropped", static_cast<double>(recorder.dropped));
  expect("trace_recorder_capacity", 64);

  rdb::Database* db = lrc->database();
  const rdb::RecoveryStats& rec = db->recovery_stats();
  EXPECT_GT(rec.recovered_txns, 0u);
  expect("wal_recovery_enabled", 1);
  expect("wal_recovered_txns", static_cast<double>(rec.recovered_txns));
  expect("wal_records_applied", static_cast<double>(rec.records_applied));
  expect("wal_snapshot_rows", static_cast<double>(rec.snapshot_rows));
  expect("wal_torn_tail_bytes", static_cast<double>(rec.torn_tail_bytes));
  expect("wal_checksum_failures",
         static_cast<double>(rec.checksum_failures + db->wal().checksum_failures()));
  expect("wal_recover_us", static_cast<double>(rec.recover_micros));
  expect("wal_last_lsn", static_cast<double>(db->wal().last_lsn()));
  expect("wal_group_max_commits", static_cast<double>(db->wal().group_max_commits()));
  expect("wal_commits", static_cast<double>(db->wal().commits()));
  expect("wal_syncs", static_cast<double>(db->wal().syncs()));
  expect("wal_group_size", static_cast<double>(db->wal().group_commits()));

  server.Stop();
  obs::SpanRecorder::Global().Disable();
  std::filesystem::remove_all(wal_dir);
}

/// The top-level keys of one stats JSON line, then every metric's name.
std::vector<std::string> JsonKeys(const std::string& line) {
  std::vector<std::string> keys;
  const std::string::size_type metrics = line.find("\"metrics\": [");
  const std::regex key("\"(\\w+)\": ");
  const std::string head = line.substr(0, metrics);
  for (std::sregex_iterator it(head.begin(), head.end(), key), end; it != end; ++it) {
    keys.push_back((*it)[1]);
  }
  keys.push_back("metrics");
  const std::regex name("\"name\": \"(\\w+)\"");
  for (std::sregex_iterator it(line.begin() + metrics, line.end(), name), end; it != end;
       ++it) {
    keys.push_back((*it)[1]);
  }
  return keys;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// One renderer: the bench harness's RLS_BENCH_JSON line and the JSONL
// exporter's line of a server alike carry the same keys.
TEST(GetStatsTest, BenchAndExporterLinesHaveTheSameKeys) {
  const std::string dir = ::testing::TempDir() + "/rls_obs_json_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string bench_path = dir + "/bench.jsonl";
  ASSERT_EQ(::setenv("RLS_BENCH_JSON", bench_path.c_str(), 1), 0);
  {
    rlsbench::Testbed testbed;
    testbed.StartLrc("lrc:json");
  }  // the testbed appends its servers' lines as it goes
  ::unsetenv("RLS_BENCH_JSON");

  net::InProcTransport network;
  dbapi::Environment env;
  rls::RlsServerConfig config;
  config.address = "lrc:json";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://obs_json";
  config.obs.export_path = dir + "/export.jsonl";
  config.obs.export_period = std::chrono::hours(1);
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn, dir + "/obs_json.wal").ok());
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();  // the exporter writes its final line

  const std::string bench_line = ReadFirstLine(bench_path);
  const std::string export_line = ReadFirstLine(config.obs.export_path);
  EXPECT_EQ(bench_line.rfind("{\"server\": \"lrc:json\", \"role\": \"lrc\", \"metrics\": [", 0),
            0u)
      << bench_line;
  EXPECT_EQ(JsonKeys(bench_line), JsonKeys(export_line));
  std::filesystem::remove_all(dir);
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
