// End-to-end soft-state update tests: LRC servers pushing full,
// incremental, Bloom and partitioned updates into RLI servers over the
// in-process network (paper §3.2–3.5). Every server runs on one
// ManualClock: time moves only when a test advances it, and
// WaitForParked() then waits until every periodic loop did its due work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>

#include "rls/client.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using namespace std::chrono_literals;
using rlscommon::ErrorCode;

class SoftStateTest : public ::testing::Test {
 protected:
  static std::string UniqueName(const std::string& base) {
    static std::atomic<int> counter{0};
    return base + std::to_string(counter.fetch_add(1));
  }

  /// Starts an RLI server (relational + bloom stores).
  std::unique_ptr<RlsServer> StartRli(const std::string& address,
                                      std::chrono::seconds timeout = std::chrono::seconds(0)) {
    RlsServerConfig config;
    config.address = address;
    config.rli.enabled = true;
    config.rli.dsn = "mysql://" + UniqueName("rli_db");
    config.rli.accept_bloom = true;
    config.rli.timeout = timeout;
    EXPECT_TRUE(env_.CreateDatabase(config.rli.dsn).ok());
    auto server = std::make_unique<RlsServer>(&network_, config, &env_, &clock_);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  /// Starts an LRC server configured with the given update mode/targets.
  std::unique_ptr<RlsServer> StartLrc(const std::string& address, UpdateConfig update) {
    RlsServerConfig config;
    config.address = address;
    config.url = address;
    config.lrc.enabled = true;
    config.lrc.dsn = "mysql://" + UniqueName("lrc_db");
    config.lrc.update = std::move(update);
    EXPECT_TRUE(env_.CreateDatabase(config.lrc.dsn).ok());
    auto server = std::make_unique<RlsServer>(&network_, config, &env_, &clock_);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  /// Waits until `loops` periodic threads have done the work due by
  /// the clock's Now() and sleep again.
  void Settle(std::size_t loops) { ASSERT_TRUE(clock_.WaitForParked(loops, 10s)); }

  rlscommon::ManualClock clock_;
  net::InProcTransport network_;
  dbapi::Environment env_;
};

TEST_F(SoftStateTest, FullUncompressedUpdateFlow) {
  auto rli = StartRli("rli:1");
  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{"rli:1"});
  update.chunk_size = 16;  // force multiple chunks
  auto lrc = StartLrc("lrc:1", update);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lrc->lrc_store()
                    ->CreateMapping("lfn" + std::to_string(i), "pfn" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  // The RLI now maps every logical name to the LRC url.
  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli->rli_relational()->Query("lfn42", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "lrc:1");
  EXPECT_EQ(rli->rli_relational()->AssociationCount(), 50u);
  EXPECT_EQ(obs::SampleValue(rli->GetStatsSnapshot().metrics, "rli_updates_received_total"), 1);
  EXPECT_EQ(lrc->update_manager()->stats().full_updates_sent, 1u);
  EXPECT_EQ(lrc->update_manager()->stats().names_sent, 50u);
}

TEST_F(SoftStateTest, IncrementalUpdateReflectsRecentChanges) {
  auto rli = StartRli("rli:2");
  UpdateConfig update;
  update.mode = UpdateMode::kImmediate;
  update.targets.push_back(UpdateTarget{"rli:2"});
  auto lrc = StartLrc("lrc:2", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("a", "p1").ok());
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("b", "p2").ok());
  ASSERT_TRUE(lrc->update_manager()->FlushImmediate().ok());

  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli->rli_relational()->Query("a", &lrcs).ok());
  ASSERT_TRUE(rli->rli_relational()->Query("b", &lrcs).ok());

  // Deleting a name propagates as a "removed" entry.
  ASSERT_TRUE(lrc->lrc_store()->DeleteMapping("a", "p1").ok());
  ASSERT_TRUE(lrc->update_manager()->FlushImmediate().ok());
  EXPECT_EQ(rli->rli_relational()->Query("a", &lrcs).code(), ErrorCode::kNotFound);
  ASSERT_TRUE(rli->rli_relational()->Query("b", &lrcs).ok());
}

// A full batch is the scheduler's to send at once. A FlushImmediate that
// finds the batch already taken must still return only once it landed.
TEST(SoftStateFlushTest, FlushWaitsForTheBatchTheSchedulerTook) {
  rlscommon::ManualClock clock;
  net::InProcTransport network(&clock);  // link delays sleep on the test clock
  dbapi::Environment env;
  RlsServerConfig rli_config;
  rli_config.address = "rli:inflight";
  rli_config.rli.enabled = true;
  rli_config.rli.dsn = "mysql://inflight_rli";
  ASSERT_TRUE(env.CreateDatabase(rli_config.rli.dsn).ok());
  RlsServer rli(&network, rli_config, &env, &clock);
  ASSERT_TRUE(rli.Start().ok());
  RlsServerConfig lrc_config;
  lrc_config.address = "lrc:inflight";
  lrc_config.lrc.enabled = true;
  lrc_config.lrc.dsn = "mysql://inflight_lrc";
  lrc_config.lrc.update.mode = UpdateMode::kImmediate;
  lrc_config.lrc.update.immediate_max_pending = 2;
  // Every message takes a second of the test clock, so a send parks.
  lrc_config.lrc.update.targets.push_back(
      UpdateTarget{"rli:inflight", net::LinkModel{std::chrono::seconds(2), 0}});
  ASSERT_TRUE(env.CreateDatabase(lrc_config.lrc.dsn).ok());
  RlsServer lrc(&network, lrc_config, &env, &clock);
  ASSERT_TRUE(lrc.Start().ok());

  ASSERT_TRUE(lrc.lrc_store()->CreateMapping("a", "p1").ok());
  ASSERT_TRUE(lrc.lrc_store()->CreateMapping("b", "p2").ok());
  // The batch is full: the scheduler took it and sleeps in its send.
  ASSERT_TRUE(clock.WaitForParked(1, 10s));
  auto flushed =
      std::async(std::launch::async, [&] { return lrc.update_manager()->FlushImmediate(); });
  while (flushed.wait_for(10ms) != std::future_status::ready) clock.Advance(1s);
  EXPECT_TRUE(flushed.get().ok());
  std::vector<std::string> lrcs;
  EXPECT_TRUE(rli.rli_relational()->Query("a", &lrcs).ok()) << "flush returned before the send";
  EXPECT_TRUE(rli.rli_relational()->Query("b", &lrcs).ok());
  // Drive the clock until the LRC stops, so a send still in flight ends.
  auto stopped = std::async(std::launch::async, [&] { lrc.Stop(); });
  while (stopped.wait_for(10ms) != std::future_status::ready) clock.Advance(1s);
}

TEST_F(SoftStateTest, AddThenDeleteCancelsOut) {
  auto rli = StartRli("rli:3");
  UpdateConfig update;
  update.mode = UpdateMode::kImmediate;
  update.targets.push_back(UpdateTarget{"rli:3"});
  auto lrc = StartLrc("lrc:3", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("flash", "p").ok());
  ASSERT_TRUE(lrc->lrc_store()->DeleteMapping("flash", "p").ok());
  ASSERT_TRUE(lrc->update_manager()->FlushImmediate().ok());
  // Nothing should have been sent: the add and delete cancelled.
  EXPECT_EQ(lrc->update_manager()->stats().incremental_updates_sent, 0u);
}

TEST_F(SoftStateTest, BloomUpdateFlow) {
  auto rli = StartRli("rli:4");
  UpdateConfig update;
  update.mode = UpdateMode::kBloom;
  update.targets.push_back(UpdateTarget{"rli:4"});
  update.bloom_expected_entries = 1000;
  auto lrc = StartLrc("lrc:4", update);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(lrc->lrc_store()
                    ->CreateMapping("blfn" + std::to_string(i), "p" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  EXPECT_EQ(rli->rli_bloom()->filter_count(), 1u);

  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli->rli_bloom()->Query("blfn123", &lrcs).ok());
  ASSERT_EQ(lrcs.size(), 1u);
  EXPECT_EQ(lrcs[0], "lrc:4");
  // The one-time generation cost was recorded.
  EXPECT_GE(lrc->update_manager()->stats().last_bloom_generate_seconds, 0.0);
  EXPECT_EQ(lrc->update_manager()->stats().bloom_updates_sent, 1u);
}

TEST_F(SoftStateTest, BloomDeletionUnsetsBits) {
  auto rli = StartRli("rli:5");
  UpdateConfig update;
  update.mode = UpdateMode::kBloom;
  update.targets.push_back(UpdateTarget{"rli:5"});
  update.bloom_expected_entries = 1000;
  auto lrc = StartLrc("lrc:5", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("keep", "p1").ok());
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("drop", "p2").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  ASSERT_TRUE(lrc->lrc_store()->DeleteMapping("drop", "p2").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());  // resends filter

  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli->rli_bloom()->Query("keep", &lrcs).ok());
  EXPECT_EQ(rli->rli_bloom()->Query("drop", &lrcs).code(), ErrorCode::kNotFound);
}

TEST_F(SoftStateTest, PartitionedUpdatesRouteBySubspace) {
  // Paper §3.5: names matched against patterns; different namespace
  // subsets go to different RLIs.
  auto rli_a = StartRli("rli:6a");
  auto rli_b = StartRli("rli:6b");
  UpdateConfig update;
  update.mode = UpdateMode::kPartitioned;
  update.targets.push_back(UpdateTarget{"rli:6a", net::LinkModel::Loopback(),
                                        {"lfn://expA/*"}});
  update.targets.push_back(UpdateTarget{"rli:6b", net::LinkModel::Loopback(),
                                        {"lfn://expB/*"}});
  auto lrc = StartLrc("lrc:6", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://expA/f1", "p1").ok());
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://expA/f2", "p2").ok());
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("lfn://expB/f1", "p3").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  EXPECT_EQ(rli_a->rli_relational()->AssociationCount(), 2u);
  EXPECT_EQ(rli_b->rli_relational()->AssociationCount(), 1u);
  std::vector<std::string> lrcs;
  EXPECT_TRUE(rli_a->rli_relational()->Query("lfn://expA/f1", &lrcs).ok());
  EXPECT_EQ(rli_a->rli_relational()->Query("lfn://expB/f1", &lrcs).code(),
            ErrorCode::kNotFound);
}

TEST_F(SoftStateTest, StaleEntriesExpireAtRli) {
  auto rli = StartRli("rli:7", std::chrono::seconds(1));
  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{"rli:7"});
  auto lrc = StartLrc("lrc:7", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("short-lived", "p").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  std::vector<std::string> lrcs;
  ASSERT_TRUE(rli->rli_relational()->Query("short-lived", &lrcs).ok());

  // The expire thread sleeps until the entry is a full timeout old: a
  // millisecond short of it the entry stays, at the timeout it goes.
  // Two loops wait on the clock: the RLI's expiry and the LRC's rounds.
  clock_.Advance(999ms);
  Settle(2);
  ASSERT_TRUE(rli->rli_relational()->Query("short-lived", &lrcs).ok());
  clock_.Advance(1ms);
  Settle(2);
  EXPECT_EQ(rli->rli_relational()->Query("short-lived", &lrcs).code(),
            ErrorCode::kNotFound);

  // A fresh update resurrects it — soft state is reconstructable (§2).
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  EXPECT_TRUE(rli->rli_relational()->Query("short-lived", &lrcs).ok());
}

TEST_F(SoftStateTest, LrcUpdatesMultipleRlis) {
  auto rli_a = StartRli("rli:8a");
  auto rli_b = StartRli("rli:8b");
  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{"rli:8a"});
  update.targets.push_back(UpdateTarget{"rli:8b"});
  auto lrc = StartLrc("lrc:8", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("both", "p").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());
  std::vector<std::string> lrcs;
  EXPECT_TRUE(rli_a->rli_relational()->Query("both", &lrcs).ok());
  EXPECT_TRUE(rli_b->rli_relational()->Query("both", &lrcs).ok());
}

TEST_F(SoftStateTest, HierarchicalRliForwarding) {
  // §7 "hierarchy of RLI servers that update one another".
  auto root = StartRli("rli:root");
  RlsServerConfig mid_config;
  mid_config.address = "rli:mid";
  mid_config.rli.enabled = true;
  mid_config.rli.dsn = "mysql://" + UniqueName("rli_mid");
  mid_config.rli.parents.push_back(UpdateTarget{"rli:root"});
  ASSERT_TRUE(env_.CreateDatabase(mid_config.rli.dsn).ok());
  auto mid = std::make_unique<RlsServer>(&network_, mid_config, &env_);
  ASSERT_TRUE(mid->Start().ok());

  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{"rli:mid"});
  auto lrc = StartLrc("lrc:9", update);

  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("forwarded", "p").ok());
  ASSERT_TRUE(lrc->update_manager()->ForceFullUpdate().ok());

  std::vector<std::string> lrcs;
  EXPECT_TRUE(mid->rli_relational()->Query("forwarded", &lrcs).ok());
  // The update propagated one level up the hierarchy too.
  EXPECT_TRUE(root->rli_relational()->Query("forwarded", &lrcs).ok());
}

TEST_F(SoftStateTest, ImmediateSchedulerFlushesOnThreshold) {
  auto rli = StartRli("rli:10");
  UpdateConfig update;
  update.mode = UpdateMode::kImmediate;
  update.targets.push_back(UpdateTarget{"rli:10"});
  update.immediate_max_pending = 5;
  update.immediate_interval = std::chrono::milliseconds(50);
  auto lrc = StartLrc("lrc:10", update);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(lrc->lrc_store()
                    ->CreateMapping("auto" + std::to_string(i), "p")
                    .ok());
  }
  // The fifth change fills the batch: the background scheduler flushes
  // it without an explicit call and with no time passing.
  Settle(1);
  std::vector<std::string> lrcs;
  EXPECT_TRUE(rli->rli_relational()->Query("auto0", &lrcs).ok())
      << "scheduler never flushed the full immediate batch";
  // Whatever the full batch left pending goes out one interval later.
  clock_.Advance(50ms);
  Settle(1);
  EXPECT_TRUE(rli->rli_relational()->Query("auto5", &lrcs).ok())
      << "scheduler never flushed the open batch at its interval";
}

TEST_F(SoftStateTest, UpdateToBloomOnlyRliRejectsUncompressed) {
  RlsServerConfig config;
  config.address = "rli:bloomonly";
  config.rli.enabled = true;
  config.rli.dsn = "";  // no database: Bloom-only (paper §3.4)
  auto rli = std::make_unique<RlsServer>(&network_, config, &env_);
  ASSERT_TRUE(rli->Start().ok());

  UpdateConfig update;
  update.mode = UpdateMode::kFull;
  update.targets.push_back(UpdateTarget{"rli:bloomonly"});
  auto lrc = StartLrc("lrc:11", update);
  ASSERT_TRUE(lrc->lrc_store()->CreateMapping("x", "p").ok());
  EXPECT_EQ(lrc->update_manager()->ForceFullUpdate().code(), ErrorCode::kUnsupported);
}

// The end of a full update is as unsupported on a Bloom-only RLI as its
// begin and chunks: nothing is counted, traced or forwarded.
TEST_F(SoftStateTest, FullUpdateEndOnBloomOnlyRliIsUnsupported) {
  auto root = StartRli("rli:bloomonly-root");
  RlsServerConfig config;
  config.address = "rli:bloomonly-mid";
  config.rli.enabled = true;
  config.rli.dsn = "";  // no database: Bloom-only (paper §3.4)
  config.rli.parents.push_back(UpdateTarget{"rli:bloomonly-root"});
  auto rli = std::make_unique<RlsServer>(&network_, config, &env_);
  ASSERT_TRUE(rli->Start().ok());

  std::unique_ptr<net::RpcClient> rpc;
  ASSERT_TRUE(net::RpcClient::Connect(&network_, config.address, {}, &rpc).ok());
  std::string payload, response;
  FullUpdateEnd{"lrc:ghost", 1}.Encode(&payload);
  EXPECT_EQ(rpc->Call(kSsFullEnd, payload, &response).code(), ErrorCode::kUnsupported);

  const GetStatsResponse stats = rli->GetStatsSnapshot();
  EXPECT_EQ(obs::SampleValue(stats.metrics, "rli_updates_received_total"), 0);
  EXPECT_EQ(stats.last_update_trace_id, 0u);
  EXPECT_EQ(obs::SampleValue(root->GetStatsSnapshot().metrics, "rli_updates_received_total"), 0);
}

}  // namespace
}  // namespace rls
