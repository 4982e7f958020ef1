// Result paging (offset/limit) through store, server and client.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

class PagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    const int id = counter.fetch_add(1);
    RlsServerConfig config;
    config.address = "rls:paging" + std::to_string(id);
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://paging" + std::to_string(id);
    ASSERT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    server_ = std::make_unique<RlsServer>(&network_, config, &env_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(LrcClient::Connect(&network_, config.address, {}, &client_).ok());

    // One logical name with 10 replicas; 10 names matching a glob.
    for (int r = 0; r < 10; ++r) {
      auto s = r == 0 ? client_->Create("multi", "replica-0")
                      : client_->Add("multi", "replica-" + std::to_string(r));
      ASSERT_TRUE(s.ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          client_->Create("wild-" + std::to_string(i), "p" + std::to_string(i)).ok());
    }
  }

  net::InProcTransport network_;
  dbapi::Environment env_;
  std::unique_ptr<RlsServer> server_;
  std::unique_ptr<LrcClient> client_;
};

TEST_F(PagingTest, QueryLimitCapsResults) {
  std::vector<std::string> targets;
  ASSERT_TRUE(client_->Query("multi", &targets, 0, 3).ok());
  EXPECT_EQ(targets.size(), 3u);
}

TEST_F(PagingTest, QueryPagesAreDisjointAndComplete) {
  std::set<std::string> all;
  for (uint32_t offset = 0; offset < 10; offset += 4) {
    std::vector<std::string> page;
    ASSERT_TRUE(client_->Query("multi", &page, offset, 4).ok());
    EXPECT_LE(page.size(), 4u);
    for (const std::string& t : page) {
      EXPECT_TRUE(all.insert(t).second) << "duplicate across pages: " << t;
    }
  }
  EXPECT_EQ(all.size(), 10u);
}

TEST_F(PagingTest, OffsetPastEndYieldsEmptyPage) {
  std::vector<std::string> page;
  ASSERT_TRUE(client_->Query("multi", &page, 100, 5).ok());
  EXPECT_TRUE(page.empty());
}

TEST_F(PagingTest, ZeroLimitMeansUnlimited) {
  std::vector<std::string> targets;
  ASSERT_TRUE(client_->Query("multi", &targets, 0, 0).ok());
  EXPECT_EQ(targets.size(), 10u);
  ASSERT_TRUE(client_->Query("multi", &targets, 6, 0).ok());
  EXPECT_EQ(targets.size(), 4u);
}

TEST_F(PagingTest, WildcardPaging) {
  std::set<std::string> all;
  for (uint32_t offset = 0; offset < 10; offset += 3) {
    std::vector<Mapping> page;
    ASSERT_TRUE(client_->WildcardQuery("wild-*", 3, &page, offset).ok());
    for (const Mapping& m : page) {
      EXPECT_TRUE(all.insert(m.logical).second);
    }
  }
  EXPECT_EQ(all.size(), 10u);
}

TEST_F(PagingTest, ReverseQueryPaging) {
  // All wild-* names map to distinct targets; multi has 10 replicas —
  // page the reverse lookup of a shared target.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_->Create("shared-" + std::to_string(i), "common-target").ok());
  }
  std::vector<std::string> page;
  ASSERT_TRUE(client_->QueryTarget("common-target", &page, 2, 2).ok());
  EXPECT_EQ(page.size(), 2u);
}

}  // namespace
}  // namespace rls
