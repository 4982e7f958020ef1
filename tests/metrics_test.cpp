// Latency histogram + server metrics surface.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/histogram.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rlscommon {
namespace {

TEST(HistogramTest, EmptySnapshot) {
  LatencyHistogram hist;
  auto snap = hist.GetSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_us, 0.0);
}

TEST(HistogramTest, MeanAndCount) {
  LatencyHistogram hist;
  hist.RecordMicros(100);
  hist.RecordMicros(300);
  auto snap = hist.GetSnapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.mean_us, 200.0);
}

TEST(HistogramTest, QuantilesWithinBucketResolution) {
  LatencyHistogram hist;
  // 90 fast samples (~100 us), 10 slow (~10000 us).
  for (int i = 0; i < 90; ++i) hist.RecordMicros(100);
  for (int i = 0; i < 10; ++i) hist.RecordMicros(10000);
  auto snap = hist.GetSnapshot();
  // p50 lands in the 64..127 bucket (upper edge 127).
  EXPECT_GE(snap.p50_us, 100u);
  EXPECT_LE(snap.p50_us, 255u);
  // p99 must land in the slow bucket (8192..16383).
  EXPECT_GE(snap.p99_us, 10000u);
  EXPECT_LE(snap.p99_us, 16383u);
  EXPECT_GE(snap.max_us, 10000u);
}

TEST(HistogramTest, ExtremeValuesClampToLastBucket) {
  LatencyHistogram hist;
  hist.RecordMicros(0);
  hist.RecordMicros(UINT64_MAX);
  auto snap = hist.GetSnapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_GT(snap.max_us, 1u << 30);
}

TEST(HistogramTest, RecordChronoAndReset) {
  LatencyHistogram hist;
  hist.Record(std::chrono::milliseconds(5));
  auto snap = hist.GetSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_NEAR(snap.mean_us, 5000.0, 1.0);
  hist.Reset();
  EXPECT_EQ(hist.GetSnapshot().count, 0u);
}

TEST(HistogramTest, ConcurrentRecordersDontLoseMuch) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) hist.RecordMicros(128);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.GetSnapshot().count, uint64_t{kThreads} * kPerThread);
}

TEST(HistogramTest, ToStringContainsFields) {
  LatencyHistogram hist;
  hist.RecordMicros(10);
  std::string text = hist.ToString();
  EXPECT_NE(text.find("count=1"), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
}

TEST(ServerMetricsTest, MethodsTrackOperations) {
  net::InProcTransport network;
  dbapi::Environment env;
  ASSERT_TRUE(env.CreateDatabase("mysql://metrics_lrc").ok());
  rls::RlsServerConfig config;
  config.address = "rls:metrics";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://metrics_lrc";
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(rls::LrcClient::Connect(&network, "rls:metrics", {}, &client).ok());
  ASSERT_TRUE(client->Create("m1", "p1").ok());
  ASSERT_TRUE(client->Create("m2", "p2").ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(client->Query("m1", &targets).ok());

  rls::GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  std::map<std::string, uint64_t> counts;
  for (const rls::MetricSample& m : stats.metrics) {
    if (m.name != "rpc_request_latency_us") continue;
    counts[m.labels] = static_cast<uint64_t>(m.value);  // a histogram's value is its count
    if (m.value > 0) {
      EXPECT_GT(m.max_us, 0u) << m.labels;
    }
  }
  EXPECT_EQ(counts["method=\"lrc_create\""], 2u);
  EXPECT_EQ(counts["method=\"lrc_query_lfn\""], 1u);
  server.Stop();
}

TEST(ServerMetricsTest, CodecRoundTrip) {
  rls::GetStatsResponse stats;
  rls::MetricSample m;
  m.name = "rpc_request_latency_us";
  m.labels = "method=\"lrc_query_lfn\"";
  m.kind = 2;
  m.value = 7;
  m.mean_us = 12.5;
  m.p50_us = 8;
  m.p95_us = 64;
  m.p99_us = 128;
  m.p999_us = 192;
  m.max_us = 255;
  m.exemplar_us = 250;
  m.exemplar_trace = 0xfeed;
  stats.metrics.push_back(m);
  std::string bytes;
  stats.Encode(&bytes);
  rls::GetStatsResponse decoded;
  ASSERT_TRUE(rls::GetStatsResponse::Decode(bytes, &decoded).ok());
  ASSERT_EQ(decoded.metrics.size(), 1u);
  const rls::MetricSample& d = decoded.metrics[0];
  EXPECT_EQ(d.labels, m.labels);
  EXPECT_EQ(d.value, 7);
  EXPECT_DOUBLE_EQ(d.mean_us, 12.5);
  EXPECT_EQ(d.p999_us, 192u);
  EXPECT_EQ(d.max_us, 255u);
  EXPECT_EQ(d.exemplar_trace, 0xfeedu);
  EXPECT_FALSE(rls::GetStatsResponse::Decode("garbage", &decoded).ok());
}

}  // namespace
}  // namespace rlscommon
