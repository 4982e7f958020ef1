// Whole-system integration tests: multi-LRC/multi-RLI topologies modeled
// on the deployments of paper §6 (ESG's fully connected 4-node mesh;
// Pegasus' 6 LRC / 4 RLI split), exercised end-to-end through the client
// API: client -> RLI -> LRC -> replica.
#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "common/workload.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

std::string UniqueDb(const std::string& base) {
  static std::atomic<int> counter{0};
  return "mysql://" + base + std::to_string(counter.fetch_add(1));
}

class Topology {
 public:
  explicit Topology(net::InProcTransport* network) : network_(network) {}

  RlsServer* AddLrc(const std::string& address, UpdateConfig update) {
    RlsServerConfig config;
    config.address = address;
    config.lrc.enabled = true;
    config.lrc.dsn = UniqueDb("topo_lrc");
    config.lrc.update = std::move(update);
    EXPECT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    return StartServer(config);
  }

  RlsServer* AddRli(const std::string& address, bool bloom_only = false) {
    RlsServerConfig config;
    config.address = address;
    config.rli.enabled = true;
    if (!bloom_only) {
      config.rli.dsn = UniqueDb("topo_rli");
      EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    }
    return StartServer(config);
  }

  RlsServer* AddCombined(const std::string& address, UpdateConfig update) {
    RlsServerConfig config;
    config.address = address;
    config.lrc.enabled = true;
    config.lrc.dsn = UniqueDb("topo_both_lrc");
    config.lrc.update = std::move(update);
    config.rli.enabled = true;
    config.rli.dsn = UniqueDb("topo_both_rli");
    EXPECT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    return StartServer(config);
  }

 private:
  RlsServer* StartServer(const RlsServerConfig& config) {
    auto server = std::make_unique<RlsServer>(network_, config, &env_);
    EXPECT_TRUE(server->Start().ok());
    servers_.push_back(std::move(server));
    return servers_.back().get();
  }

  net::InProcTransport* network_;
  dbapi::Environment env_;
  std::vector<std::unique_ptr<RlsServer>> servers_;
};

UpdateConfig FullUpdateTo(std::initializer_list<std::string> rlis) {
  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  for (const std::string& rli : rlis) update.targets.push_back(UpdateTarget{rli});
  return update;
}

TEST(IntegrationTest, TwoLevelLookupFlow) {
  // The paper's canonical usage: query the RLI for the owning LRCs, then
  // query one of those LRCs for the replicas (paper §3.2).
  net::InProcTransport network;
  Topology topo(&network);
  topo.AddRli("rli:lookup");
  RlsServer* lrc0 = topo.AddLrc("lrc:west", FullUpdateTo({"rli:lookup"}));
  RlsServer* lrc1 = topo.AddLrc("lrc:east", FullUpdateTo({"rli:lookup"}));

  // Both sites replicate "shared-data"; only west has "west-only".
  ASSERT_TRUE(lrc0->lrc_store()->CreateMapping("shared-data", "gsiftp://west/d").ok());
  ASSERT_TRUE(lrc1->lrc_store()->CreateMapping("shared-data", "gsiftp://east/d").ok());
  ASSERT_TRUE(lrc0->lrc_store()->CreateMapping("west-only", "gsiftp://west/w").ok());
  ASSERT_TRUE(lrc0->update_manager()->ForceFullUpdate().ok());
  ASSERT_TRUE(lrc1->update_manager()->ForceFullUpdate().ok());

  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network, "rli:lookup", {}, &rli_client).ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli_client->Query("shared-data", &lrcs).ok());
  EXPECT_EQ(lrcs.size(), 2u);
  ASSERT_TRUE(rli_client->Query("west-only", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);

  // Follow the pointer: ask that LRC for actual replica locations.
  std::unique_ptr<LrcClient> lrc_client;
  ASSERT_TRUE(LrcClient::Connect(&network, lrcs[0], {}, &lrc_client).ok());
  std::vector<std::string> replicas;
  ASSERT_TRUE(lrc_client->Query("west-only", &replicas).ok());
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0], "gsiftp://west/w");
}

TEST(IntegrationTest, EsgStyleFullyConnectedMesh) {
  // ESG deploys four servers functioning as both LRCs and RLIs in a
  // fully connected configuration (paper §6).
  net::InProcTransport network;
  Topology topo(&network);
  const std::vector<std::string> addresses = {"esg:0", "esg:1", "esg:2", "esg:3"};
  std::vector<RlsServer*> nodes;
  for (const std::string& address : addresses) {
    // Every node updates every node (including itself).
    UpdateConfig update;
    update.mode = UpdateMode::kFull;
    for (const std::string& peer : addresses) {
      update.targets.push_back(UpdateTarget{peer});
    }
    nodes.push_back(topo.AddCombined(address, update));
  }

  // Each node registers its own files.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (int f = 0; f < 10; ++f) {
      ASSERT_TRUE(nodes[i]
                      ->lrc_store()
                      ->CreateMapping("esg-file-" + std::to_string(i) + "-" +
                                          std::to_string(f),
                                      "gsiftp://esg" + std::to_string(i) + "/f")
                      .ok());
    }
  }
  for (RlsServer* node : nodes) {
    ASSERT_TRUE(node->update_manager()->ForceFullUpdate().ok());
  }

  // ANY node's RLI can locate ANY file.
  for (const std::string& address : addresses) {
    std::unique_ptr<RliClient> client;
    ASSERT_TRUE(RliClient::Connect(&network, address, {}, &client).ok());
    std::vector<std::string> lrcs;
    ASSERT_TRUE(client->Query("esg-file-2-7", &lrcs).ok()) << "via " << address;
    ASSERT_EQ(lrcs.size(), 1u);
    EXPECT_EQ(lrcs[0], "esg:2");
  }
}

TEST(IntegrationTest, PegasusStyleManyLrcsFewRlis) {
  // Pegasus: 6 LRCs and 4 RLIs registering ~100k logical files (§6);
  // here scaled down but with the same fan-out structure.
  net::InProcTransport network;
  Topology topo(&network);
  const std::vector<std::string> rli_addresses = {"peg-rli:0", "peg-rli:1",
                                                  "peg-rli:2", "peg-rli:3"};
  std::vector<RlsServer*> rlis;
  for (const auto& address : rli_addresses) rlis.push_back(topo.AddRli(address));

  std::vector<RlsServer*> lrcs;
  rlscommon::NameGenerator gen("pegasus");
  for (int i = 0; i < 6; ++i) {
    UpdateConfig update;
    update.mode = UpdateMode::kFull;
    // Each LRC updates two RLIs (redundancy).
    update.targets.push_back(UpdateTarget{rli_addresses[i % 4]});
    update.targets.push_back(UpdateTarget{rli_addresses[(i + 1) % 4]});
    RlsServer* lrc = topo.AddLrc("peg-lrc:" + std::to_string(i), update);
    for (int f = 0; f < 50; ++f) {
      uint64_t id = static_cast<uint64_t>(i) * 50 + f;
      ASSERT_TRUE(
          lrc->lrc_store()->CreateMapping(gen.LogicalName(id), gen.PhysicalName(id)).ok());
    }
    lrcs.push_back(lrc);
  }
  for (RlsServer* lrc : lrcs) {
    ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  }

  // A file registered at LRC 3 is findable through its two RLIs.
  const std::string name = gen.LogicalName(3 * 50 + 11);
  std::unique_ptr<RliClient> client;
  ASSERT_TRUE(RliClient::Connect(&network, rli_addresses[3], {}, &client).ok());
  std::vector<std::string> found;
  ASSERT_TRUE(client->Query(name, &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], "peg-lrc:3");
  ASSERT_TRUE(RliClient::Connect(&network, rli_addresses[0], {}, &client).ok());
  ASSERT_TRUE(client->Query(name, &found).ok());
  EXPECT_EQ(found[0], "peg-lrc:3");
  // ...but not through an RLI it does not update.
  ASSERT_TRUE(RliClient::Connect(&network, rli_addresses[1], {}, &client).ok());
  EXPECT_EQ(client->Query(name, &found).code(), ErrorCode::kNotFound);
}

TEST(IntegrationTest, BloomRliFalsePositivesRecoverable) {
  // Paper §3.2/§3.4: a Bloom RLI may answer with a false positive; the
  // client recovers by querying the LRC, which authoritatively says no.
  net::InProcTransport network;
  Topology topo(&network);
  topo.AddRli("rli:bloom", /*bloom_only=*/true);
  UpdateConfig update;
  update.mode = UpdateMode::kBloom;
  update.targets.push_back(UpdateTarget{"rli:bloom"});
  update.bloom_expected_entries = 2000;
  RlsServer* lrc = topo.AddLrc("lrc:bloomsrc", update);

  rlscommon::NameGenerator gen("fp");
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        lrc->lrc_store()->CreateMapping(gen.LogicalName(i), gen.PhysicalName(i)).ok());
  }
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network, "rli:bloom", {}, &rli_client).ok());
  std::unique_ptr<LrcClient> lrc_client;
  ASSERT_TRUE(LrcClient::Connect(&network, "lrc:bloomsrc", {}, &lrc_client).ok());

  // Registered names are always found (no false negatives) and resolve.
  std::vector<std::string> lrcs, replicas;
  ASSERT_TRUE(rli_client->Query(gen.LogicalName(123), &lrcs).ok());
  ASSERT_TRUE(lrc_client->Query(gen.LogicalName(123), &replicas).ok());

  // Probe unregistered names: any RLI false positive must be recoverable
  // at the LRC (NotFound there).
  int false_positives = 0;
  for (uint64_t i = 0; i < 3000; ++i) {
    const std::string name = gen.LogicalName(1000000 + i);
    if (rli_client->Query(name, &lrcs).ok()) {
      ++false_positives;
      EXPECT_EQ(lrc_client->Query(name, &replicas).code(), ErrorCode::kNotFound);
    }
  }
  // ~1% FP rate -> expect on the order of 30; allow wide slack but assert
  // the rate is clearly bounded.
  EXPECT_LT(false_positives, 150);
  // Wildcard queries are impossible on a Bloom-only RLI (paper §5.4).
  std::vector<Mapping> wild;
  EXPECT_EQ(rli_client->WildcardQuery("*", 0, &wild).code(), ErrorCode::kUnsupported);
}

TEST(IntegrationTest, StaleRliPointerRecovery) {
  // A client holding a stale RLI answer must get NotFound at the LRC and
  // be able to fall back to another replica (paper §3.2 robustness note).
  net::InProcTransport network;
  Topology topo(&network);
  topo.AddRli("rli:stale");
  RlsServer* lrc_a = topo.AddLrc("lrc:a", FullUpdateTo({"rli:stale"}));
  RlsServer* lrc_b = topo.AddLrc("lrc:b", FullUpdateTo({"rli:stale"}));
  ASSERT_TRUE(lrc_a->lrc_store()->CreateMapping("doc", "gsiftp://a/doc").ok());
  ASSERT_TRUE(lrc_b->lrc_store()->CreateMapping("doc", "gsiftp://b/doc").ok());
  ASSERT_TRUE(lrc_a->update_manager()->ForceFullUpdate().ok());
  ASSERT_TRUE(lrc_b->update_manager()->ForceFullUpdate().ok());

  // The replica at A disappears but the RLI still points there (stale).
  ASSERT_TRUE(lrc_a->lrc_store()->DeleteMapping("doc", "gsiftp://a/doc").ok());

  std::unique_ptr<RliClient> rli_client;
  ASSERT_TRUE(RliClient::Connect(&network, "rli:stale", {}, &rli_client).ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli_client->Query("doc", &lrcs).ok());
  EXPECT_EQ(lrcs.size(), 2u);  // stale answer still lists both

  int resolved = 0;
  for (const std::string& address : lrcs) {
    std::unique_ptr<LrcClient> lrc_client;
    ASSERT_TRUE(LrcClient::Connect(&network, address, {}, &lrc_client).ok());
    std::vector<std::string> replicas;
    if (lrc_client->Query("doc", &replicas).ok()) ++resolved;
  }
  EXPECT_EQ(resolved, 1);  // exactly the surviving replica
}

}  // namespace
}  // namespace rls
