// UpdateManager behaviour beyond the happy path: unreachable targets,
// runtime target management, partitioned immediate mode, stats.
#include <gtest/gtest.h>

#include <atomic>

#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

class UpdateManagerTest : public ::testing::Test {
 protected:
  static std::string Unique(const std::string& base) {
    static std::atomic<int> counter{0};
    return base + std::to_string(counter.fetch_add(1));
  }

  RlsServer* StartLrc(UpdateConfig update) {
    RlsServerConfig config;
    config.address = Unique("um-lrc:");
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://" + Unique("um_lrc");
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
    config.rli.dsn = "mysql://" + Unique("um_rli");
    EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    servers_.push_back(std::make_unique<RlsServer>(&network_, config, &env_));
    EXPECT_TRUE(servers_.back()->Start().ok());
    return servers_.back().get();
  }

  net::InProcTransport network_;
  dbapi::Environment env_;
  std::vector<std::unique_ptr<RlsServer>> servers_;
};

TEST_F(UpdateManagerTest, UnreachableTargetReportsAndRecovers) {
  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{"um-rli:late"});
  RlsServer* lrc = StartLrc(update);
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("x", "p").ok());

  // RLI not up yet: the update fails cleanly with the retryable
  // transport code (the server may come up later).
  EXPECT_EQ(lrc->update_manager()->ForceFullUpdate().code(),
            ErrorCode::kUnavailable);

  // ...and succeeds once the RLI appears (lazy reconnect).
  RlsServer* rli = StartRli("um-rli:late");
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  std::vector<std::string> owners;
  EXPECT_TRUE(rli->rli_relational()->Query("x", &owners).ok());
}

TEST_F(UpdateManagerTest, AddAndRemoveTargetsAtRuntime) {
  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  RlsServer* lrc = StartLrc(update);
  RlsServer* rli_a = StartRli("um-rli:a");
  RlsServer* rli_b = StartRli("um-rli:b");
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("y", "p").ok());

  lrc->update_manager()->AddTarget(UpdateTarget{"um-rli:a"});
  lrc->update_manager()->AddTarget(UpdateTarget{"um-rli:a"});  // dedup
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  std::vector<std::string> owners;
  EXPECT_TRUE(rli_a->rli_relational()->Query("y", &owners).ok());
  EXPECT_FALSE(rli_b->rli_relational()->Query("y", &owners).ok());
  EXPECT_EQ(lrc->update_manager()->stats().full_updates_sent, 1u);

  lrc->update_manager()->RemoveTarget("um-rli:a");
  lrc->update_manager()->AddTarget(UpdateTarget{"um-rli:b"});
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  EXPECT_TRUE(rli_b->rli_relational()->Query("y", &owners).ok());
}

TEST_F(UpdateManagerTest, RliAddThroughClientWiresUpdates) {
  UpdateConfig update;
  update.mode = UpdateMode::kImmediate;
  RlsServer* lrc = StartLrc(update);
  RlsServer* rli = StartRli("um-rli:viaclient");

  std::unique_ptr<LrcClient> client;
  ASSERT_TRUE(LrcClient::Connect(&network_, lrc->address(), {}, &client).ok());
  ASSERT_TRUE(client->RliAdd("um-rli:viaclient").ok());
  ASSERT_TRUE(client->Create("wired", "p").ok());
  ASSERT_TRUE(client->ForceUpdate().ok());
  std::vector<std::string> owners;
  EXPECT_TRUE(rli->rli_relational()->Query("wired", &owners).ok());

  // Removing the RLI stops future updates to it.
  ASSERT_TRUE(client->RliRemove("um-rli:viaclient").ok());
  ASSERT_TRUE(client->Create("unwired", "p").ok());
  ASSERT_TRUE(client->ForceUpdate().ok());
  EXPECT_FALSE(rli->rli_relational()->Query("unwired", &owners).ok());
}

TEST_F(UpdateManagerTest, PartitionedImmediateModeFiltersIncrementals) {
  RlsServer* rli_a = StartRli("um-rli:pa");
  RlsServer* rli_b = StartRli("um-rli:pb");
  UpdateConfig update;
  update.mode = UpdateMode::kImmediate;
  update.targets.push_back(
      UpdateTarget{"um-rli:pa", net::LinkModel::Loopback(), {"lfn://a/*"}});
  update.targets.push_back(
      UpdateTarget{"um-rli:pb", net::LinkModel::Loopback(), {"lfn://b/*"}});
  RlsServer* lrc = StartLrc(update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://a/1", "p1").ok());
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://b/1", "p2").ok());
  ASSERT_TRUE(lrc->update_manager()->FlushImmediate().ok());

  std::vector<std::string> owners;
  EXPECT_TRUE(rli_a->rli_relational()->Query("lfn://a/1", &owners).ok());
  EXPECT_FALSE(rli_a->rli_relational()->Query("lfn://b/1", &owners).ok());
  EXPECT_TRUE(rli_b->rli_relational()->Query("lfn://b/1", &owners).ok());
}

TEST_F(UpdateManagerTest, StatsAccumulate) {
  RlsServer* rli = StartRli("um-rli:stats");
  (void)rli;
  UpdateConfig update;
  update.mode = UpdateMode::kImmediate;
  update.targets.push_back(UpdateTarget{"um-rli:stats"});
  RlsServer* lrc = StartLrc(update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("s1", "p").ok());
  ASSERT_TRUE(lrc->update_manager()->FlushImmediate().ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  UpdateStats stats = lrc->update_manager()->stats();
  EXPECT_EQ(stats.incremental_updates_sent, 1u);
  EXPECT_EQ(stats.full_updates_sent, 1u);
  EXPECT_GE(stats.names_sent, 2u);  // 1 incremental + 1 full
  EXPECT_GT(stats.bytes_sent, 0u);
  // The round's duration is a sample of ss_update_duration_us.
  EXPECT_EQ(obs::SampleValue(lrc->GetStatsSnapshot().metrics, "ss_update_duration_us"), 1);
}

// stats().bytes_sent is ss_bytes_sent_total: the update bytes shipped to
// every target, not one target's client total.
TEST_F(UpdateManagerTest, BytesSentCountsEveryTarget) {
  StartRli("um-rli:ba");
  StartRli("um-rli:bb");
  const UpdateTarget a{"um-rli:ba", net::LinkModel::Loopback(), {"lfn://a/*"}};
  const UpdateTarget b{"um-rli:bb", net::LinkModel::Loopback(), {"lfn://b/*"}};
  UpdateConfig update;
  update.mode = UpdateMode::kPartitioned;
  update.targets = {a, b};
  RlsServer* lrc = StartLrc(update);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://a/" + std::to_string(i), "p").ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://b/" + std::to_string(i), "p").ok());
  }
  UpdateManager* manager = lrc->update_manager();
  auto shipped = [&] {
    return obs::SampleValue(lrc->GetStatsSnapshot().metrics, "ss_bytes_sent_total");
  };
  ASSERT_TRUE(manager->ForceFullUpdate().ok());
  const uint64_t both = manager->stats().bytes_sent;
  EXPECT_EQ(both, shipped());

  // The same round to each target alone (wire integers are fixed width,
  // so a round's bytes do not depend on its update id or timestamp).
  auto round_bytes = [&] {
    const double before = shipped();
    EXPECT_TRUE(manager->ForceFullUpdate().ok());
    return shipped() - before;
  };
  manager->RemoveTarget(b.address);
  const double to_a = round_bytes();
  manager->RemoveTarget(a.address);
  manager->AddTarget(b);
  const double to_b = round_bytes();
  EXPECT_GT(to_a, to_b);
  EXPECT_EQ(both, to_a + to_b);
}

TEST_F(UpdateManagerTest, ForceUpdateWithoutModeFails) {
  UpdateConfig update;  // kNone
  RlsServer* lrc = StartLrc(update);
  EXPECT_EQ(lrc->update_manager()->ForceFullUpdate().code(),
            ErrorCode::kInvalidArgument);
  // Immediate flush is a no-op without pending changes.
  EXPECT_TRUE(lrc->update_manager()->FlushImmediate().ok());
}

}  // namespace
}  // namespace rls
