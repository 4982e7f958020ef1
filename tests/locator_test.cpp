// ReplicaLocator: the §3.2 robustness pattern as a library.
#include "rls/locator.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/workload.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using rlscommon::ErrorCode;

class LocatorTest : public ::testing::Test {
 protected:
  static std::string Unique(const std::string& base) {
    static std::atomic<int> counter{0};
    return base + std::to_string(counter.fetch_add(1));
  }

  RlsServer* StartRli(const std::string& address, bool bloom_only = false) {
    RlsServerConfig config;
    config.address = address;
    config.rli.enabled = true;
    if (!bloom_only) {
      config.rli.dsn = "mysql://" + Unique("loc_rli");
      EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    }
    servers_.push_back(std::make_unique<RlsServer>(&network_, config, &env_));
    EXPECT_TRUE(servers_.back()->Start().ok());
    return servers_.back().get();
  }

  RlsServer* StartLrc(const std::string& address, UpdateConfig update) {
    RlsServerConfig config;
    config.address = address;
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://" + Unique("loc_lrc");
    config.lrc.update = std::move(update);
    EXPECT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    servers_.push_back(std::make_unique<RlsServer>(&network_, config, &env_));
    EXPECT_TRUE(servers_.back()->Start().ok());
    return servers_.back().get();
  }

  static UpdateConfig FullTo(std::initializer_list<std::string> rlis) {
    UpdateConfig update;
    update.mode = UpdateMode::kFull;
    for (const std::string& address : rlis) {
      update.targets.push_back(UpdateTarget{address});
    }
    return update;
  }

  net::InProcTransport network_;
  dbapi::Environment env_;
  std::vector<std::unique_ptr<RlsServer>> servers_;
};

TEST_F(LocatorTest, UnionsReplicasAcrossSites) {
  StartRli("loc-rli:a");
  RlsServer* west = StartLrc("loc-lrc:west", FullTo({"loc-rli:a"}));
  RlsServer* east = StartLrc("loc-lrc:east", FullTo({"loc-rli:a"}));
  ASSERT_TRUE(west->lrc_store()->CreateMapping("doc", "gsiftp://west/doc").ok());
  ASSERT_TRUE(east->lrc_store()->CreateMapping("doc", "gsiftp://east/doc").ok());
  ASSERT_TRUE(west->update_manager()->ForceFullUpdate().ok());
  ASSERT_TRUE(east->update_manager()->ForceFullUpdate().ok());

  ReplicaLocator locator(&network_, {"loc-rli:a"});
  std::vector<std::string> replicas;
  ASSERT_TRUE(locator.Locate("doc", &replicas).ok());
  EXPECT_EQ(replicas.size(), 2u);
  EXPECT_EQ(locator.counters().rli_queries, 1u);
  EXPECT_EQ(locator.counters().lrc_queries, 2u);
}

TEST_F(LocatorTest, ConsultsMultipleRlis) {
  // Name registered at an LRC that only updates the SECOND RLI.
  StartRli("loc-rli:first");
  StartRli("loc-rli:second");
  RlsServer* lrc = StartLrc("loc-lrc:only2", FullTo({"loc-rli:second"}));
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("hidden", "gsiftp://x/h").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  ReplicaLocator locator(&network_, {"loc-rli:first", "loc-rli:second"});
  std::vector<std::string> replicas;
  ASSERT_TRUE(locator.Locate("hidden", &replicas).ok());
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0], "gsiftp://x/h");
}

TEST_F(LocatorTest, DropsStalePointers) {
  StartRli("loc-rli:stale");
  RlsServer* a = StartLrc("loc-lrc:sa", FullTo({"loc-rli:stale"}));
  RlsServer* b = StartLrc("loc-lrc:sb", FullTo({"loc-rli:stale"}));
  ASSERT_TRUE(a->lrc_store()->CreateMapping("f", "gsiftp://a/f").ok());
  ASSERT_TRUE(b->lrc_store()->CreateMapping("f", "gsiftp://b/f").ok());
  ASSERT_TRUE(a->update_manager()->ForceFullUpdate().ok());
  ASSERT_TRUE(b->update_manager()->ForceFullUpdate().ok());
  // Replica at A vanishes; the RLI still points there.
  ASSERT_TRUE(a->lrc_store()->DeleteMapping("f", "gsiftp://a/f").ok());

  ReplicaLocator locator(&network_, {"loc-rli:stale"});
  std::vector<std::string> replicas;
  ASSERT_TRUE(locator.Locate("f", &replicas).ok());
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0], "gsiftp://b/f");
  EXPECT_EQ(locator.counters().stale_pointers, 1u);
}

TEST_F(LocatorTest, BloomFalsePositivesFiltered) {
  StartRli("loc-rli:bloom", /*bloom_only=*/true);
  UpdateConfig update;
  update.mode = UpdateMode::kBloom;
  update.bloom_expected_entries = 2000;
  update.targets.push_back(UpdateTarget{"loc-rli:bloom"});
  RlsServer* lrc = StartLrc("loc-lrc:bloom", update);
  rlscommon::NameGenerator gen("locfp");
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        lrc->lrc_store()->CreateMapping(gen.LogicalName(i), gen.PhysicalName(i)).ok());
  }
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  ReplicaLocator locator(&network_, {"loc-rli:bloom"});
  std::vector<std::string> replicas;
  // Registered names always resolve.
  ASSERT_TRUE(locator.Locate(gen.LogicalName(100), &replicas).ok());
  EXPECT_EQ(replicas.size(), 1u);
  // Unregistered probes NEVER return replicas (Bloom FPs are filtered at
  // the LRC); count how many FPs the locator had to absorb.
  int not_found = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    auto s = locator.Locate(gen.LogicalName(5000000 + i), &replicas);
    EXPECT_EQ(s.code(), ErrorCode::kNotFound);
    if (s.code() == ErrorCode::kNotFound) ++not_found;
  }
  EXPECT_EQ(not_found, 1000);
}

TEST_F(LocatorTest, SurvivesDownRli) {
  StartRli("loc-rli:up");
  RlsServer* lrc = StartLrc("loc-lrc:up", FullTo({"loc-rli:up"}));
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("alive", "gsiftp://x/a").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  // One of the configured RLIs does not exist at all.
  ReplicaLocator locator(&network_, {"loc-rli:ghost", "loc-rli:up"});
  std::vector<std::string> replicas;
  ASSERT_TRUE(locator.Locate("alive", &replicas).ok());
  EXPECT_EQ(replicas.size(), 1u);
}

TEST_F(LocatorTest, BulkLocate) {
  StartRli("loc-rli:bulk");
  RlsServer* lrc = StartLrc("loc-lrc:bulk", FullTo({"loc-rli:bulk"}));
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) {
    std::string name = "bulk-" + std::to_string(i);
    ASSERT_TRUE(lrc->lrc_store()->CreateMapping(name, "gsiftp://x/" + name).ok());
    names.push_back(name);
  }
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  names.push_back("bulk-missing");

  ReplicaLocator locator(&network_, {"loc-rli:bulk"});
  std::map<std::string, std::vector<std::string>> located;
  ASSERT_TRUE(locator.LocateBulk(names, &located).ok());
  EXPECT_EQ(located.size(), 20u);
  EXPECT_EQ(located.count("bulk-missing"), 0u);
  EXPECT_EQ(located.at("bulk-7").size(), 1u);
  // Bulk path: one RLI query + one LRC query total.
  EXPECT_EQ(locator.counters().rli_queries, 1u);
  EXPECT_EQ(locator.counters().lrc_queries, 1u);
}

TEST_F(LocatorTest, NothingKnownIsNotFound) {
  StartRli("loc-rli:empty");
  ReplicaLocator locator(&network_, {"loc-rli:empty"});
  std::vector<std::string> replicas;
  EXPECT_EQ(locator.Locate("never-registered", &replicas).code(),
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace rls
