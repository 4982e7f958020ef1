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
  EXPECT_GE(stats.last_update_seconds, 0.0);
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
