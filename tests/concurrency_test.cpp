// Concurrency stress: many client threads mutating and querying one
// server while soft-state updates and expiry passes run — then check
// global invariants. Mirrors the paper's 100-requesting-threads setup.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>

#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

TEST(ConcurrencyTest, MixedWorkloadKeepsInvariants) {
  net::InProcTransport network;
  dbapi::Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://stress_lrc").ok());
  ASSERT_TRUE(env.CreateDatabase("mysql://stress_rli").ok());

  RlsServerConfig rli_config;
  rli_config.address = "rls:stress-rli";
  rli_config.rli.enabled = true;
  rli_config.rli.dsn = "mysql://stress_rli";
  rli_config.rli.timeout = std::chrono::seconds(60);
  RlsServer rli(&network, rli_config, &env);
  ASSERT_TRUE(rli.Start().ok());

  RlsServerConfig lrc_config;
  lrc_config.address = "rls:stress-lrc";
  lrc_config.lrc.enabled = true;
  lrc_config.lrc.dsn = "mysql://stress_lrc";
  lrc_config.lrc.update.mode = UpdateMode::kImmediate;
  lrc_config.lrc.update.immediate_interval = std::chrono::milliseconds(10);
  lrc_config.lrc.update.immediate_max_pending = 10;
  lrc_config.lrc.update.targets.push_back(UpdateTarget{"rls:stress-rli"});
  RlsServer lrc(&network, lrc_config, &env);
  ASSERT_TRUE(lrc.Start().ok());

  constexpr int kThreads = 12;
  constexpr int kOpsPerThread = 300;
  std::atomic<int> unexpected{0};
  std::atomic<uint64_t> creates_ok{0}, deletes_ok{0};
  std::barrier gate(kThreads);

  // Expiry passes run back to back through the storm, so their
  // transactions race the soft-state upserts.
  std::atomic<bool> storm{true};
  std::thread expirer([&] {
    while (storm.load()) rli.ExpireNow();
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<LrcClient> client;
      if (!LrcClient::Connect(&network, "rls:stress-lrc", {}, &client).ok()) {
        ++unexpected;
        return;
      }
      gate.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Threads intentionally collide on a small shared keyspace.
        const std::string lfn = "stress-" + std::to_string((t * 7 + i) % 50);
        const std::string pfn = "p-" + std::to_string(t) + "-" + std::to_string(i % 3);
        switch (i % 4) {
          case 0: {
            auto s = client->Create(lfn, pfn);
            if (s.ok()) {
              ++creates_ok;
            } else if (s.code() != rlscommon::ErrorCode::kAlreadyExists) {
              ++unexpected;
            }
            break;
          }
          case 1: {
            auto s = client->Add(lfn, pfn);
            if (!s.ok() && s.code() != rlscommon::ErrorCode::kAlreadyExists &&
                s.code() != rlscommon::ErrorCode::kNotFound) {
              ++unexpected;
            }
            break;
          }
          case 2: {
            auto s = client->Delete(lfn, pfn);
            if (s.ok()) {
              ++deletes_ok;
            } else if (s.code() != rlscommon::ErrorCode::kNotFound) {
              ++unexpected;
            }
            break;
          }
          case 3: {
            std::vector<std::string> targets;
            auto s = client->Query(lfn, &targets);
            if (s.ok() && targets.empty()) ++unexpected;  // ok implies results
            if (!s.ok() && s.code() != rlscommon::ErrorCode::kNotFound) ++unexpected;
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  storm.store(false);
  expirer.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(creates_ok.load(), 0u);
  EXPECT_GT(deletes_ok.load(), 0u);

  // Invariants after the storm: every surviving logical name resolves to
  // at least one target, and counts are consistent.
  std::unique_ptr<LrcClient> checker;
  ASSERT_TRUE(LrcClient::Connect(&network, "rls:stress-lrc", {}, &checker).ok());
  std::vector<Mapping> all;
  ASSERT_TRUE(checker->WildcardQuery("stress-*", 0, &all).ok() || all.empty());
  uint64_t resolvable = 0;
  std::set<std::string> names;
  for (const Mapping& m : all) names.insert(m.logical);
  for (const std::string& name : names) {
    std::vector<std::string> targets;
    auto s = checker->Query(name, &targets);
    ASSERT_TRUE(s.ok()) << name;
    ASSERT_FALSE(targets.empty()) << name;
    resolvable += targets.size();
  }
  EXPECT_EQ(resolvable, all.size());  // wildcard view == per-name view
  GetStatsResponse stats;
  ASSERT_TRUE(checker->GetStats(&stats).ok());
  EXPECT_EQ(obs::SampleValue(stats.metrics, "lrc_logical_names"), names.size());
  EXPECT_EQ(obs::SampleValue(stats.metrics, "lrc_mappings"), all.size());

  // The immediate-mode scheduler kept feeding the RLI throughout; one
  // final flush + full update must reconcile the index completely.
  ASSERT_TRUE(checker->ForceUpdate().ok());
  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network, "rls:stress-rli", {}, &rli_client).ok());
  for (const std::string& name : names) {
    std::vector<std::string> owners;
    ASSERT_TRUE(rli_client->Query(name, &owners).ok()) << name;
  }

  lrc.Stop();
  rli.Stop();
}

TEST(ConcurrencyTest, VacuumDuringLoadBlocksButNeverCorrupts) {
  net::InProcTransport network;
  dbapi::Environment env;
  ASSERT_TRUE(env.CreateDatabase("postgresql://stress_pg").ok());
  RlsServerConfig config;
  config.address = "rls:stress-pg";
  config.lrc.enabled = true;
  config.lrc.dsn = "postgresql://stress_pg";
  RlsServer lrc(&network, config, &env);
  ASSERT_TRUE(lrc.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<LrcClient> client;
      if (!LrcClient::Connect(&network, "rls:stress-pg", {}, &client).ok()) {
        ++unexpected;
        return;
      }
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string lfn = "vac-" + std::to_string(t) + "-" + std::to_string(i);
        if (!client->Create(lfn, "p").ok()) ++unexpected;
        if (!client->Delete(lfn, "p").ok()) ++unexpected;
        ++i;
      }
    });
  }
  // VACUUM repeatedly while the churn runs (exclusive table locks).
  rdb::Database* db = env.Find("postgresql://stress_pg");
  for (int v = 0; v < 10; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    db->VacuumAll();
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(unexpected.load(), 0);
  // Steady-state: everything was deleted; a final vacuum leaves no dead rows.
  db->VacuumAll();
  EXPECT_EQ(lrc.lrc_store()->LogicalNameCount(), 0u);
  EXPECT_EQ(db->GetTable("t_lfn")->dead_rows(), 0u);
  lrc.Stop();
}

}  // namespace
}  // namespace rls
