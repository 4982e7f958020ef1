// Tests for configuration-file bootstrap (single servers and static
// topologies — the paper's stand-in for a membership service, §3.6).
#include "rls/bootstrap.h"

#include <gtest/gtest.h>

#include "rls/client.h"

namespace rls {
namespace {

using rlscommon::Config;
using rlscommon::ErrorCode;
using rlscommon::Status;

Config MustParse(const std::string& text) {
  Config config;
  EXPECT_TRUE(Config::ParseString(text, &config).ok());
  return config;
}

TEST(ConfigureServerTest, FullLrcConfig) {
  Config config = MustParse(
      "address rls://lrc0.isi.edu\n"
      "lrc_server true\n"
      "lrc_dsn mysql://boot_lrc0\n"
      "update_mode immediate\n"
      "update_rli rls://rli0.isi.edu\n"
      "update_rli rls://rli1.isi.edu\n"
      "update_immediate_interval_ms 5000\n"
      "update_buffer_count 42\n");
  RlsServerConfig server;
  ASSERT_TRUE(ConfigureServer(config, &server).ok());
  EXPECT_EQ(server.address, "rls://lrc0.isi.edu");
  EXPECT_TRUE(server.lrc.enabled);
  EXPECT_FALSE(server.rli.enabled);
  EXPECT_EQ(server.lrc.update.mode, UpdateMode::kImmediate);
  ASSERT_EQ(server.lrc.update.targets.size(), 2u);
  EXPECT_EQ(server.lrc.update.targets[1].address, "rls://rli1.isi.edu");
  EXPECT_EQ(server.lrc.update.immediate_interval, std::chrono::milliseconds(5000));
  EXPECT_EQ(server.lrc.update.immediate_max_pending, 42u);
}

TEST(ConfigureServerTest, RliConfigWithParents) {
  Config config = MustParse(
      "address rls://rli0\n"
      "rli_server true\n"
      "rli_dsn mysql://boot_rli0\n"
      "rli_timeout_s 120\n"
      "rli_parent rls://root-rli\n");
  RlsServerConfig server;
  ASSERT_TRUE(ConfigureServer(config, &server).ok());
  EXPECT_TRUE(server.rli.enabled);
  EXPECT_EQ(server.rli.timeout, std::chrono::seconds(120));
  ASSERT_EQ(server.rli.parents.size(), 1u);
  EXPECT_EQ(server.rli.parents[0].address, "rls://root-rli");
}

TEST(ConfigureServerTest, PartitionedTargetsCarryPatterns) {
  Config config = MustParse(
      "address rls://lrc\n"
      "lrc_server true\n"
      "lrc_dsn mysql://boot_part\n"
      "update_mode partitioned\n"
      "update_rli rls://rli-a lfn://expA/* lfn://calib/*\n"
      "update_rli rls://rli-b lfn://expB/*\n");
  RlsServerConfig server;
  ASSERT_TRUE(ConfigureServer(config, &server).ok());
  ASSERT_EQ(server.lrc.update.targets.size(), 2u);
  EXPECT_EQ(server.lrc.update.targets[0].patterns.size(), 2u);
  EXPECT_EQ(server.lrc.update.targets[0].patterns[1], "lfn://calib/*");
}

TEST(ConfigureServerTest, AuthenticationBlock) {
  Config config = MustParse(
      "address rls://sec\n"
      "lrc_server true\n"
      "lrc_dsn mysql://boot_sec\n"
      "authentication true\n"
      "gridmap \"/CN=Ann.*\" annc\n"
      "acl annc: lrc_read, lrc_write\n"
      "auth_handshake_us 0\n");
  RlsServerConfig server;
  ASSERT_TRUE(ConfigureServer(config, &server).ok());
  EXPECT_FALSE(server.auth.open());
  gsi::AuthContext ctx;
  ASSERT_TRUE(server.auth.Authenticate(gsi::Credential{"/CN=Ann Chervenak"}, &ctx).ok());
  EXPECT_EQ(ctx.local_user, "annc");
  EXPECT_TRUE(server.auth.Authorize(ctx, gsi::Privilege::kLrcWrite).ok());
}

TEST(ConfigureServerTest, RejectsBrokenConfigs) {
  RlsServerConfig server;
  EXPECT_FALSE(ConfigureServer(MustParse("lrc_server true\n"), &server).ok());
  EXPECT_FALSE(ConfigureServer(MustParse("address a\n"), &server).ok());
  EXPECT_FALSE(
      ConfigureServer(MustParse("address a\nlrc_server true\n"), &server).ok());
  EXPECT_FALSE(ConfigureServer(
                   MustParse("address a\nlrc_server true\nlrc_dsn mysql://x\n"
                             "update_mode full\n"),  // mode without targets
                   &server)
                   .ok());
  EXPECT_FALSE(ConfigureServer(
                   MustParse("address a\nlrc_server true\nlrc_dsn mysql://x\n"
                             "update_mode warp\nupdate_rli r\n"),
                   &server)
                   .ok());
  EXPECT_FALSE(ConfigureServer(
                   MustParse("address a\nlrc_server true\nlrc_dsn mysql://x\n"
                             "authentication true\n"),  // no acl entries
                   &server)
                   .ok());
}

TEST(EnsureDatabasesTest, CreatesOnceIdempotently) {
  Config config = MustParse(
      "address rls://both\n"
      "lrc_server true\n"
      "lrc_dsn mysql://ensure_lrc\n"
      "rli_server true\n"
      "rli_dsn mysql://ensure_rli\n");
  RlsServerConfig server;
  ASSERT_TRUE(ConfigureServer(config, &server).ok());
  dbapi::Environment env;
  ASSERT_TRUE(EnsureDatabases(server, env).ok());
  EXPECT_NE(env.Find("mysql://ensure_lrc"), nullptr);
  EXPECT_NE(env.Find("mysql://ensure_rli"), nullptr);
  // Second call must not fail on the existing databases.
  EXPECT_TRUE(EnsureDatabases(server, env).ok());
}

TEST(TopologyTest, StartsWholeDeploymentFromOneFile) {
  Config config = MustParse(
      "servers rli0 lrc0 lrc1\n"
      "server.rli0.address rls://topo-rli0\n"
      "server.rli0.rli_server true\n"
      "server.rli0.rli_dsn mysql://topo_rli0\n"
      "server.lrc0.address rls://topo-lrc0\n"
      "server.lrc0.lrc_server true\n"
      "server.lrc0.lrc_dsn mysql://topo_lrc0\n"
      "server.lrc0.update_mode full\n"
      "server.lrc0.update_rli rls://topo-rli0\n"
      "server.lrc1.address rls://topo-lrc1\n"
      "server.lrc1.lrc_server true\n"
      "server.lrc1.lrc_dsn mysql://topo_lrc1\n"
      "server.lrc1.update_mode full\n"
      "server.lrc1.update_rli rls://topo-rli0\n");
  net::InProcTransport network;
  dbapi::Environment env;
  std::unique_ptr<Topology> topology;
  ASSERT_TRUE(Topology::Create(config, &network, &env, &topology).ok());
  EXPECT_EQ(topology->size(), 3u);
  ASSERT_NE(topology->Find("lrc0"), nullptr);
  EXPECT_EQ(topology->Find("nope"), nullptr);

  // The deployment actually works end to end.
  RlsServer* lrc0 = topology->Find("lrc0");
  ASSERT_TRUE(lrc0->lrc_store()->CreateMapping("topo-file", "gsiftp://x/f").ok());
  ASSERT_TRUE(lrc0->update_manager()->ForceFullUpdate().ok());
  std::unique_ptr<RliClient> client;
  ASSERT_TRUE(RliClient::Connect(&network, "rls://topo-rli0", {}, &client).ok());
  std::vector<std::string> owners;
  ASSERT_TRUE(client->Query("topo-file", &owners).ok());
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0], "rls://topo-lrc0");
  topology->StopAll();
}

TEST(TopologyTest, RejectsMissingServerList) {
  net::InProcTransport network;
  dbapi::Environment env;
  std::unique_ptr<Topology> topology;
  EXPECT_FALSE(
      Topology::Create(MustParse("server.x.address a\n"), &network, &env, &topology)
          .ok());
}

TEST(TopologyTest, BrokenMemberFailsWholeTopology) {
  Config config = MustParse(
      "servers good bad\n"
      "server.good.address rls://topo-good\n"
      "server.good.lrc_server true\n"
      "server.good.lrc_dsn mysql://topo_good\n"
      "server.bad.address rls://topo-bad\n");  // no role
  net::InProcTransport network;
  dbapi::Environment env;
  std::unique_ptr<Topology> topology;
  Status s = Topology::Create(config, &network, &env, &topology);
  EXPECT_FALSE(s.ok());
  // The good server was stopped and unregistered: its address is free.
  EXPECT_TRUE(network.Listen("rls://topo-good", [](net::ConnectionPtr) {}).ok());
}

}  // namespace
}  // namespace rls
