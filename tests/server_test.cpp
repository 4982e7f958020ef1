// Client-API tests against the common server: every operation family of
// Table 1, plus ACL enforcement and the common-server role configuration.
#include <gtest/gtest.h>

#include <atomic>

#include "obs/trace.h"
#include "rdb/profile.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

class ServerTest : public ::testing::Test {
 protected:
  static std::string UniqueName(const std::string& base) {
    static std::atomic<int> counter{0};
    return base + std::to_string(counter.fetch_add(1));
  }

  void SetUp() override {
    RlsServerConfig config;
    config.address = UniqueName("rls:");
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://" + UniqueName("srv_lrc");
    ASSERT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    server_ = std::make_unique<RlsServer>(&network_, config, &env_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(LrcClient::Connect(&network_, config.address, {}, &client_).ok());
  }

  net::InProcTransport network_;
  dbapi::Environment env_;
  std::unique_ptr<RlsServer> server_;
  std::unique_ptr<LrcClient> client_;
};

TEST_F(ServerTest, PingAndStats) {
  ASSERT_TRUE(client_->Ping().ok());
  GetStatsResponse stats;
  ASSERT_TRUE(client_->GetStats(&stats).ok());
  EXPECT_EQ(stats.role, "lrc");
  EXPECT_EQ(obs::SampleValue(stats.metrics, "lrc_logical_names"), 0);
}

TEST_F(ServerTest, MappingLifecycleOverRpc) {
  ASSERT_TRUE(client_->Create("lfn1", "pfnA").ok());
  ASSERT_TRUE(client_->Add("lfn1", "pfnB").ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(client_->Query("lfn1", &targets).ok());
  EXPECT_EQ(targets.size(), 2u);
  ASSERT_TRUE(client_->Exists("lfn1").ok());
  ASSERT_TRUE(client_->Delete("lfn1", "pfnA").ok());
  ASSERT_TRUE(client_->Delete("lfn1", "pfnB").ok());
  EXPECT_EQ(client_->Exists("lfn1").code(), ErrorCode::kNotFound);
  EXPECT_EQ(client_->Query("lfn1", &targets).code(), ErrorCode::kNotFound);
}

TEST_F(ServerTest, ReverseAndWildcardQueries) {
  ASSERT_TRUE(client_->Create("lfn://e/r1/f1", "gsiftp://s/a").ok());
  ASSERT_TRUE(client_->Create("lfn://e/r1/f2", "gsiftp://s/a").ok());
  std::vector<std::string> logicals;
  ASSERT_TRUE(client_->QueryTarget("gsiftp://s/a", &logicals).ok());
  EXPECT_EQ(logicals.size(), 2u);
  std::vector<Mapping> mappings;
  ASSERT_TRUE(client_->WildcardQuery("lfn://e/r1/*", 0, &mappings).ok());
  EXPECT_EQ(mappings.size(), 2u);
}

TEST_F(ServerTest, BulkOperations) {
  std::vector<Mapping> mappings;
  for (int i = 0; i < 100; ++i) {
    mappings.push_back(Mapping{"bulk" + std::to_string(i), "p" + std::to_string(i)});
  }
  BulkStatusResponse result;
  ASSERT_TRUE(client_->BulkCreate(mappings, &result).ok());
  EXPECT_EQ(result.succeeded, 100u);
  EXPECT_TRUE(result.failures.empty());

  // Re-creating reports per-item failures without failing the batch.
  ASSERT_TRUE(client_->BulkCreate(mappings, &result).ok());
  EXPECT_EQ(result.succeeded, 0u);
  EXPECT_EQ(result.failures.size(), 100u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kAlreadyExists);

  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back("bulk" + std::to_string(i));
  std::vector<Mapping> found;
  ASSERT_TRUE(client_->BulkQuery(names, &found).ok());
  EXPECT_EQ(found.size(), 100u);

  ASSERT_TRUE(client_->BulkDelete(mappings, &result).ok());
  EXPECT_EQ(result.succeeded, 100u);
  EXPECT_EQ(obs::SampleValue(server_->GetStatsSnapshot().metrics, "lrc_logical_names"), 0);
}

TEST_F(ServerTest, BulkQuerySkipsMissingNames) {
  ASSERT_TRUE(client_->Create("present", "p").ok());
  std::vector<Mapping> found;
  ASSERT_TRUE(client_->BulkQuery({"present", "absent"}, &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].logical, "present");
}

TEST_F(ServerTest, AttributesOverRpc) {
  ASSERT_TRUE(client_->Create("lfn1", "pfnA").ok());
  ASSERT_TRUE(
      client_->AttributeDefine("size", AttrObject::kTarget, AttrType::kInt).ok());
  ASSERT_TRUE(client_->AttributeAdd("pfnA", "size", AttrObject::kTarget,
                                    AttrValue::Int(4096)).ok());
  std::vector<Attribute> attrs;
  ASSERT_TRUE(client_->AttributeQuery("pfnA", AttrObject::kTarget, &attrs).ok());
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].value.int_value, 4096);

  ASSERT_TRUE(client_->AttributeModify("pfnA", "size", AttrObject::kTarget,
                                       AttrValue::Int(8192)).ok());
  std::vector<Attribute> found;
  ASSERT_TRUE(client_->AttributeSearch("size", AttrObject::kTarget, AttrCmp::kGt,
                                       AttrValue::Int(5000), &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "pfnA");

  ASSERT_TRUE(client_->AttributeDelete("pfnA", "size", AttrObject::kTarget).ok());
  ASSERT_TRUE(client_->AttributeQuery("pfnA", AttrObject::kTarget, &attrs).ok());
  EXPECT_TRUE(attrs.empty());
  ASSERT_TRUE(client_->AttributeUndefine("size", AttrObject::kTarget).ok());
}

TEST_F(ServerTest, BulkAttributesOverRpc) {
  ASSERT_TRUE(client_->Create("lfn1", "pfnA").ok());
  ASSERT_TRUE(client_->Create("lfn2", "pfnB").ok());
  ASSERT_TRUE(
      client_->AttributeDefine("checksum", AttrObject::kTarget, AttrType::kString).ok());
  std::vector<AttrValueRequest> items(2);
  items[0].object_name = "pfnA";
  items[0].attr_name = "checksum";
  items[0].object = AttrObject::kTarget;
  items[0].value = AttrValue::Str("aaa");
  items[1].object_name = "pfnB";
  items[1].attr_name = "checksum";
  items[1].object = AttrObject::kTarget;
  items[1].value = AttrValue::Str("bbb");
  BulkStatusResponse result;
  ASSERT_TRUE(client_->BulkAttributeAdd(items, &result).ok());
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_TRUE(client_->BulkAttributeDelete(items, &result).ok());
  EXPECT_EQ(result.succeeded, 2u);
}

TEST_F(ServerTest, RliManagementOps) {
  std::vector<std::string> rlis;
  ASSERT_TRUE(client_->RliList(&rlis).ok());
  EXPECT_TRUE(rlis.empty());
  ASSERT_TRUE(client_->RliAdd("rli:managed").ok());
  ASSERT_TRUE(client_->RliList(&rlis).ok());
  ASSERT_EQ(rlis.size(), 1u);
  EXPECT_EQ(rlis[0], "rli:managed");
  ASSERT_TRUE(client_->RliRemove("rli:managed").ok());
  ASSERT_TRUE(client_->RliList(&rlis).ok());
  EXPECT_TRUE(rlis.empty());
}

TEST_F(ServerTest, RliOpcodesRejectedWithoutRliRole) {
  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network_, server_->address(), {}, &rli_client).ok());
  std::vector<std::string> lrcs;
  EXPECT_EQ(rli_client->Query("x", &lrcs).code(), ErrorCode::kUnsupported);
}

TEST(ServerRoleTest, CombinedLrcAndRliServer) {
  // §3.1: one server configured as both LRC and RLI.
  net::InProcTransport network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "combined:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://combined_lrc";
  config.lrc.update.mode = UpdateMode::kFull;
  config.lrc.update.targets.push_back(UpdateTarget{"combined:1"});  // self-update
  config.rli.enabled = true;
  config.rli.dsn = "mysql://combined_rli";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<LrcClient> lrc_client;
  ASSERT_TRUE(LrcClient::Connect(&network, "combined:1", {}, &lrc_client).ok());
  ASSERT_TRUE(lrc_client->Create("self", "p").ok());
  ASSERT_TRUE(lrc_client->ForceUpdate().ok());

  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network, "combined:1", {}, &rli_client).ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli_client->Query("self", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "combined:1");
  std::vector<std::string> updaters;
  ASSERT_TRUE(rli_client->LrcList(&updaters).ok());
  ASSERT_EQ(updaters.size(), 1u);
}

TEST(ServerRoleTest, TraceIdPropagatesFromClientToRli) {
  // A trace installed at the client edge rides the RPC frame into the
  // LRC handler, through the soft-state send, and is recorded by the
  // receiving RLI as last_update_trace_id.
  net::InProcTransport network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "traced:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://traced_lrc";
  config.lrc.update.mode = UpdateMode::kFull;
  config.lrc.update.targets.push_back(UpdateTarget{"traced:1"});  // self-update
  config.rli.enabled = true;
  config.rli.dsn = "mysql://traced_rli";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<LrcClient> client;
  ASSERT_TRUE(LrcClient::Connect(&network, "traced:1", {}, &client).ok());

  const uint64_t trace_id = obs::NewTraceId();
  {
    obs::ScopedTrace trace(obs::TraceContext{trace_id, obs::NewTraceId()});
    ASSERT_TRUE(client->Create("traced_lfn", "p").ok());
    ASSERT_TRUE(client->ForceUpdate().ok());
  }

  GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  EXPECT_EQ(stats.last_update_trace_id, trace_id);
  server.Stop();
}

TEST(ServerAclTest, PrivilegesEnforcedPerOperation) {
  net::InProcTransport network;
  dbapi::Environment env;

  gsi::Gridmap gridmap;
  ASSERT_TRUE(gridmap.AddEntry("/CN=Reader", "reader").ok());
  ASSERT_TRUE(gridmap.AddEntry("/CN=Writer", "writer").ok());
  gsi::Acl acl;
  ASSERT_TRUE(acl.AddEntry("reader", {gsi::Privilege::kLrcRead}).ok());
  ASSERT_TRUE(acl.AddEntry("writer", {gsi::Privilege::kLrcRead,
                                      gsi::Privilege::kLrcWrite}).ok());

  RlsServerConfig config;
  config.address = "secured:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://secured_lrc";
  config.auth = gsi::AuthManager::Secured(std::move(gridmap), std::move(acl),
                                          std::chrono::microseconds(0));
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  ClientConfig writer_cfg;
  writer_cfg.credential.dn = "/CN=Writer";
  std::unique_ptr<LrcClient> writer;
  ASSERT_TRUE(LrcClient::Connect(&network, "secured:1", writer_cfg, &writer).ok());
  ASSERT_TRUE(writer->Create("lfn1", "p").ok());

  ClientConfig reader_cfg;
  reader_cfg.credential.dn = "/CN=Reader";
  std::unique_ptr<LrcClient> reader;
  ASSERT_TRUE(LrcClient::Connect(&network, "secured:1", reader_cfg, &reader).ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(reader->Query("lfn1", &targets).ok());
  EXPECT_EQ(reader->Create("lfn2", "p").code(), ErrorCode::kPermissionDenied);
  // Neither has admin: RLI-list management is denied.
  EXPECT_EQ(writer->RliAdd("rli:x").code(), ErrorCode::kPermissionDenied);

  // Unknown DN authenticates (no gridmap match needed) but holds nothing.
  ClientConfig stranger_cfg;
  stranger_cfg.credential.dn = "/CN=Stranger";
  std::unique_ptr<LrcClient> stranger;
  ASSERT_TRUE(LrcClient::Connect(&network, "secured:1", stranger_cfg, &stranger).ok());
  EXPECT_EQ(stranger->Query("lfn1", &targets).code(), ErrorCode::kPermissionDenied);
}

TEST(ServerConfigTest, ServerWithNoRolesRejected) {
  net::InProcTransport network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "none:1";
  RlsServer server(&network, config, &env);
  EXPECT_EQ(server.Start().code(), ErrorCode::kInvalidArgument);
}

// A server whose Start fails on a taken address unwinds its own set-up:
// it destructs cleanly although its RPC layer has execution slots, and it
// leaves no WAL observer on the database, which the Environment owns and
// which outlives the server.
TEST(ServerConfigTest, FailedStartOnTakenAddressUnwinds) {
  net::InProcTransport network;
  dbapi::Environment env;
  ASSERT_TRUE(network.Listen("taken:1", [](net::ConnectionPtr) {}).ok());
  RlsServerConfig config;
  config.address = "taken:1";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://failed_start_lrc";
  config.limits.workers = 2;
  // Durable commits run the WAL's batch path, which calls its observer.
  rdb::BackendProfile profile = rdb::BackendProfile::MySQL();
  profile.durable_flush = true;
  profile.durable_flush_penalty = std::chrono::microseconds(0);
  ASSERT_TRUE(env.CreateDatabaseWithProfile(config.lrc.dsn, profile).ok());
  {
    RlsServer server(&network, config, &env);
    EXPECT_EQ(server.Start().code(), ErrorCode::kAlreadyExists);
  }
  // Commits on the surviving database must not reach the destroyed
  // server's instruments.
  std::unique_ptr<dbapi::Connection> conn;
  ASSERT_TRUE(dbapi::Connection::Open(env, config.lrc.dsn, &conn).ok());
  sql::ResultSet result;
  EXPECT_TRUE(
      conn->Execute("INSERT INTO t_lfn (name, ref) VALUES ('after', 0)", &result)
          .ok());
}

}  // namespace
}  // namespace rls
