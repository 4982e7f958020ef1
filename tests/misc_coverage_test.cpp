// Coverage for paths the focused suites skip: error rendering, wire
// reader utilities, auth handshake cost, bloom math, and server bulk
// partial-failure semantics.
#include <gtest/gtest.h>

#include <atomic>

#include "bloom/bloom_filter.h"
#include "common/error.h"
#include "common/workload.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace {

using rlscommon::ErrorCode;
using rlscommon::RlsError;
using rlscommon::Status;

TEST(StatusTest, ToStringAndNames) {
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status(ErrorCode::kTimeout, "").ToString(), "TIMEOUT");
  EXPECT_EQ(rlscommon::ErrorCodeName(ErrorCode::kUnsupported), "UNSUPPORTED");
}

TEST(StatusTest, ThrowIfErrorThrowsWithCode) {
  EXPECT_NO_THROW(rlscommon::ThrowIfError(Status::Ok()));
  try {
    rlscommon::ThrowIfError(Status::PermissionDenied("nope"));
    FAIL() << "did not throw";
  } catch (const RlsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
  }
}

TEST(ReaderTest, SkipAndRest) {
  std::string buffer;
  net::Writer w(&buffer);
  w.U32(7);
  w.Raw("tail-bytes");
  net::Reader r(buffer);
  uint32_t v;
  ASSERT_TRUE(r.U32(&v));
  EXPECT_EQ(r.Rest(), "tail-bytes");
  r.Skip(5);
  EXPECT_EQ(r.Rest(), "bytes");
  r.Skip(1000);  // clamps
  EXPECT_TRUE(r.AtEnd());
}

TEST(AuthTest, HandshakeCostIsCharged) {
  gsi::Gridmap gridmap;
  ASSERT_TRUE(gridmap.AddEntry("/CN=Slow", "slow").ok());
  gsi::Acl acl;
  ASSERT_TRUE(acl.AddEntry("slow", {gsi::Privilege::kLrcRead}).ok());
  auto manager = gsi::AuthManager::Secured(std::move(gridmap), std::move(acl),
                                           std::chrono::microseconds(30000));
  gsi::AuthContext ctx;
  rlscommon::Stopwatch watch;
  ASSERT_TRUE(manager.Authenticate(gsi::Credential{"/CN=Slow"}, &ctx).ok());
  EXPECT_GE(watch.ElapsedSeconds(), 0.025);
}

TEST(BloomMathTest, FpRateFallsWithMoreBits) {
  const double fp10 = bloom::ExpectedFalsePositiveRate({10000, 3}, 1000);
  const double fp20 = bloom::ExpectedFalsePositiveRate({20000, 3}, 1000);
  EXPECT_LT(fp20, fp10);
  EXPECT_NEAR(fp10, 0.0174, 0.002);  // (1 - e^{-3/10})^3: the paper rounds to ~1%
  EXPECT_DOUBLE_EQ(bloom::ExpectedFalsePositiveRate({0, 3}, 10), 1.0);
}

TEST(ServerBulkTest, PartialFailuresReportedPerItem) {
  net::InProcTransport network;
  dbapi::Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://misc_bulk").ok());
  rls::RlsServerConfig config;
  config.address = "misc:bulk";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://misc_bulk";
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "misc:bulk", {}, &client).ok());

  ASSERT_TRUE(client->Create("dup", "p0").ok());
  std::vector<rls::Mapping> batch = {
      {"fresh-1", "p1"},
      {"dup", "p-collides"},   // AlreadyExists
      {"fresh-2", "p2"},
      {std::string(9999, 'x'), "p3"},  // InvalidArgument (too long)
  };
  rls::BulkStatusResponse result;
  ASSERT_TRUE(client->BulkCreate(batch, &result).ok());
  EXPECT_EQ(result.succeeded, 2u);
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].index, 1u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(result.failures[1].index, 3u);
  // The successes landed despite the interleaved failures.
  EXPECT_TRUE(client->Exists("fresh-1").ok());
  EXPECT_TRUE(client->Exists("fresh-2").ok());
  server.Stop();
}

TEST(ServerBulkTest, BulkDeleteMirror) {
  net::InProcTransport network;
  dbapi::Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://misc_bulkdel").ok());
  rls::RlsServerConfig config;
  config.address = "misc:bulkdel";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://misc_bulkdel";
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "misc:bulkdel", {}, &client).ok());

  ASSERT_TRUE(client->Create("a", "p").ok());
  rls::BulkStatusResponse result;
  ASSERT_TRUE(client->BulkDelete({{"a", "p"}, {"ghost", "p"}}, &result).ok());
  EXPECT_EQ(result.succeeded, 1u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].code, ErrorCode::kNotFound);
  server.Stop();
}

TEST(WorkloadTest, PrefixedCorporaDoNotCollide) {
  rlscommon::NameGenerator a("siteA"), b("siteB");
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_NE(a.LogicalName(i), b.LogicalName(i));
    EXPECT_NE(a.PhysicalName(i), b.PhysicalName(i));
  }
}

TEST(ValueHashTest, EqualValuesHashEqual) {
  using rdb::Value;
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_NE(Value::String("x").Hash(), Value::String("y").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

}  // namespace
