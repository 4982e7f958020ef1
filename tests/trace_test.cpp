// Request-lifecycle tracing: span recorder ring/wrap-around/filters,
// the per-(component,name) slow log, ambient hop stamping, Chrome-trace
// export, the rate-limited logging helper, histogram exemplars, and the
// kServerGetTraces flight-recorder RPC end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"
#include "obs/trace.h"
#include "rls/client.h"
#include "rls/protocol.h"
#include "rls/rls_server.h"

namespace obs {
namespace {

/// The recorder is process-global; every test that enables it restores
/// the disabled, empty default so tests stay order-independent.
class RecorderGuard {
 public:
  explicit RecorderGuard(std::size_t capacity) {
    SpanRecorder::Global().Enable(capacity);
    SpanRecorder::Global().Clear();
  }
  ~RecorderGuard() {
    SpanRecorder::Global().Disable();
    SpanRecorder::Global().Clear();
  }
};

CompletedSpan MakeSpan(std::string name, uint64_t trace_id, uint64_t duration_us,
                       std::string component = "test") {
  CompletedSpan span;
  span.component = std::move(component);
  span.name = std::move(name);
  span.trace_id = trace_id;
  span.span_id = trace_id + 1;
  span.duration_us = duration_us;
  return span;
}

TEST(SpanRecorderTest, RecordsAndQueriesNewestFirst) {
  RecorderGuard guard(16);
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(MakeSpan("add", 1, 100));
  recorder.Record(MakeSpan("query", 2, 200));
  recorder.Record(MakeSpan("add", 3, 300));

  std::vector<CompletedSpan> all = recorder.Query(TraceFilter{});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].trace_id, 3u);  // newest first
  EXPECT_EQ(all[2].trace_id, 1u);

  TraceFilter by_name;
  by_name.name = "add";
  EXPECT_EQ(recorder.Query(by_name).size(), 2u);

  TraceFilter by_trace;
  by_trace.trace_id = 2;
  std::vector<CompletedSpan> one = recorder.Query(by_trace);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].name, "query");

  TraceFilter by_duration;
  by_duration.min_duration_us = 200;
  EXPECT_EQ(recorder.Query(by_duration).size(), 2u);

  TraceFilter by_component;
  by_component.component = "nosuch";
  EXPECT_TRUE(recorder.Query(by_component).empty());

  TraceFilter limited;
  limited.limit = 2;
  std::vector<CompletedSpan> top = recorder.Query(limited);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].trace_id, 3u);
}

TEST(SpanRecorderTest, WrapAroundKeepsNewestAndCountsDrops) {
  RecorderGuard guard(8);
  SpanRecorder& recorder = SpanRecorder::Global();
  for (uint64_t i = 1; i <= 20; ++i) {
    recorder.Record(MakeSpan("op", i, i));
  }
  const SpanRecorder::Stats stats = recorder.GetStats();
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_EQ(stats.depth, 8u);
  EXPECT_EQ(stats.recorded, 20u);
  EXPECT_EQ(stats.dropped, 12u);  // drops are visible, never silent

  std::vector<CompletedSpan> kept = recorder.Query(TraceFilter{});
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept.front().trace_id, 20u);  // newest survives
  EXPECT_EQ(kept.back().trace_id, 13u);   // oldest 12 overwritten
}

TEST(SpanRecorderTest, SlowLogSurvivesWrapAround) {
  RecorderGuard guard(8);
  SpanRecorder& recorder = SpanRecorder::Global();
  // One storm-era outlier, then a flood of fast spans that wraps the
  // ring many times over.
  recorder.Record(MakeSpan("op", 42, 900000));
  for (uint64_t i = 1; i <= 100; ++i) {
    recorder.Record(MakeSpan("op", 1000 + i, 10 + i));
  }
  // Gone from the ring...
  TraceFilter ring;
  ring.trace_id = 42;
  EXPECT_TRUE(recorder.Query(ring).empty());
  // ...but still in the top-K slow log, slowest first.
  TraceFilter slow;
  slow.slow_log = true;
  std::vector<CompletedSpan> slowest = recorder.Query(slow);
  ASSERT_FALSE(slowest.empty());
  EXPECT_EQ(slowest[0].trace_id, 42u);
  EXPECT_EQ(slowest[0].duration_us, 900000u);
  // The slow log is bounded per (component, name).
  TraceFilter slow_op = slow;
  slow_op.name = "op";
  EXPECT_LE(recorder.Query(slow_op).size(), SpanRecorder::kSlowLogPerKey);
}

TEST(SpanRecorderTest, ConcurrentRecordAndQueryIsSafe) {
  RecorderGuard guard(64);
  SpanRecorder& recorder = SpanRecorder::Global();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(
            MakeSpan("stress", static_cast<uint64_t>(t) * kPerThread + i + 1,
                     static_cast<uint64_t>(i)));
      }
    });
  }
  // Readers race the writers: Query and GetStats must stay consistent
  // under TSan while the ring wraps.
  std::thread reader([&recorder] {
    for (int i = 0; i < 200; ++i) {
      TraceFilter slow;
      slow.slow_log = true;
      (void)recorder.Query(slow);
      (void)recorder.Query(TraceFilter{});
      (void)recorder.GetStats();
    }
  });
  for (auto& thread : threads) thread.join();
  reader.join();
  const SpanRecorder::Stats stats = recorder.GetStats();
  EXPECT_EQ(stats.recorded, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.depth, 64u);
  EXPECT_EQ(stats.dropped, stats.recorded - stats.depth);
}

TEST(SpanTest, RecordsHopsAndAmbientStamps) {
  RecorderGuard guard(16);
  {
    ScopedTrace trace(TraceContext{7001, 7002});
    Span span("rpc", "lrc_add");
    span.Hop("admission");
    rlscommon::StampHop("db_txn");   // a lower layer, no obs dependency
    rlscommon::StampHop("wal_sync");
    span.Hop("handler");
  }
  std::vector<CompletedSpan> spans = SpanRecorder::Global().Query(TraceFilter{});
  ASSERT_EQ(spans.size(), 1u);
  const CompletedSpan& span = spans[0];
  EXPECT_EQ(span.component, "rpc");
  EXPECT_EQ(span.name, "lrc_add");
  EXPECT_EQ(span.trace_id, 7001u);
  ASSERT_EQ(span.hops.size(), 4u);
  EXPECT_EQ(span.hops[0].first, "admission");
  EXPECT_EQ(span.hops[1].first, "db_txn");
  EXPECT_EQ(span.hops[2].first, "wal_sync");
  EXPECT_EQ(span.hops[3].first, "handler");
  // Hop offsets are monotonic within the span.
  for (std::size_t i = 1; i < span.hops.size(); ++i) {
    EXPECT_GE(span.hops[i].second, span.hops[i - 1].second);
  }
}

TEST(SpanTest, NestedSpansRestoreTheAmbientSink) {
  RecorderGuard guard(16);
  {
    Span outer("rpc", "outer");
    {
      Span inner("update", "inner");
      rlscommon::StampHop("inner_work");  // lands on the innermost span
    }
    rlscommon::StampHop("outer_work");  // sink restored to the outer span
  }
  TraceFilter inner_filter;
  inner_filter.name = "inner";
  std::vector<CompletedSpan> inner = SpanRecorder::Global().Query(inner_filter);
  ASSERT_EQ(inner.size(), 1u);
  ASSERT_EQ(inner[0].hops.size(), 1u);
  EXPECT_EQ(inner[0].hops[0].first, "inner_work");

  TraceFilter outer_filter;
  outer_filter.name = "outer";
  std::vector<CompletedSpan> outer = SpanRecorder::Global().Query(outer_filter);
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(outer[0].hops.size(), 1u);
  EXPECT_EQ(outer[0].hops[0].first, "outer_work");
}

TEST(SpanTest, StampHopWithoutASpanIsANoOp) {
  RecorderGuard guard(16);
  rlscommon::StampHop("orphan");  // must not crash or record anything
  EXPECT_TRUE(SpanRecorder::Global().Query(TraceFilter{}).empty());
}

TEST(SpanTest, AmbientHopsAreBoundedExplicitHopsAreNot) {
  RecorderGuard guard(16);
  {
    Span span("rpc", "bulk");
    for (int i = 0; i < 500; ++i) rlscommon::StampHop("db_txn");
    span.Hop("handler");  // explicit hops bypass the cap
  }
  std::vector<CompletedSpan> spans = SpanRecorder::Global().Query(TraceFilter{});
  ASSERT_EQ(spans.size(), 1u);
  // 64 ambient stamps kept (the last one refreshed in place), + handler.
  EXPECT_EQ(spans[0].hops.size(), Span::kMaxAmbientHops + 1);
  EXPECT_EQ(spans[0].hops.back().first, "handler");
}

TEST(SpanTest, ExplicitTimestampHopsClampToSpanStart) {
  RecorderGuard guard(16);
  const auto now = std::chrono::steady_clock::now();
  {
    Span span("rpc", "clamp", now);
    // A receive timestamp recorded before the span start clamps to 0
    // instead of going negative.
    span.Hop("before", now - std::chrono::milliseconds(5));
    span.Hop("after", now + std::chrono::microseconds(250));
  }
  std::vector<CompletedSpan> spans = SpanRecorder::Global().Query(TraceFilter{});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].hops[0].second, 0u);
  EXPECT_GE(spans[0].hops[1].second, 250u);
}

TEST(SpanTest, DisabledRecorderCapturesNothing) {
  SpanRecorder::Global().Disable();
  SpanRecorder::Global().Clear();
  EXPECT_FALSE(TracingActive());
  { Span span("rpc", "invisible"); }
  EXPECT_TRUE(SpanRecorder::Global().Query(TraceFilter{}).empty());
  EXPECT_EQ(SpanRecorder::Global().GetStats().recorded, 0u);
}

TEST(ChromeTraceTest, ExportsValidTraceEventJson) {
  RecorderGuard guard(16);
  {
    ScopedTrace trace(TraceContext{0xabc, 0xdef});
    Span span("rpc", "lrc_add");
    span.Hop("admission");
    span.Hop("handler");
    span.Hop("reply");
  }
  const std::string json = SpanRecorder::Global().RenderChromeTrace();
  // Chrome trace-event envelope plus the complete event and its stage
  // slices (the intervals between consecutive hops).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"lrc_add\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"admission\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"handler\""), std::string::npos);
  EXPECT_NE(json.find("0000000000000abc"), std::string::npos);  // trace id

  const std::string path =
      "/tmp/rls_trace_test_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(SpanRecorder::Global().ExportChromeTrace(path).ok());
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(LogRateLimiterTest, TokenBucketSuppressesAndHandsOffCount) {
  rlscommon::LogRateLimiter limiter(/*per_second=*/1.0, /*burst=*/2.0);
  const int64_t t0 = 1000000;
  uint64_t suppressed = 0;
  // The burst passes...
  EXPECT_TRUE(limiter.AllowAt(t0, &suppressed));
  EXPECT_TRUE(limiter.AllowAt(t0, &suppressed));
  EXPECT_EQ(suppressed, 0u);
  // ...then the bucket is dry.
  EXPECT_FALSE(limiter.AllowAt(t0, &suppressed));
  EXPECT_FALSE(limiter.AllowAt(t0, &suppressed));
  EXPECT_FALSE(limiter.AllowAt(t0, &suppressed));
  // One second later one token refilled; the pass reports how many
  // similar lines were swallowed since the last pass.
  EXPECT_TRUE(limiter.AllowAt(t0 + 1000000, &suppressed));
  EXPECT_EQ(suppressed, 3u);
  EXPECT_EQ(limiter.total_suppressed(), 3u);
  // The handoff resets: the next pass reports only new suppressions.
  suppressed = 0;
  EXPECT_FALSE(limiter.AllowAt(t0 + 1000000, &suppressed));
  EXPECT_TRUE(limiter.AllowAt(t0 + 2000000, &suppressed));
  EXPECT_EQ(suppressed, 1u);
  EXPECT_EQ(limiter.total_suppressed(), 4u);
}

TEST(ExemplarTest, HistogramKeepsTheSlowestTrace) {
  Registry registry;
  Histogram* hist = registry.GetHistogram("op_latency_us");
  hist->RecordMicros(100);
  hist->OfferExemplar(100, 11);
  hist->RecordMicros(5000);
  hist->OfferExemplar(5000, 22);
  hist->RecordMicros(300);
  hist->OfferExemplar(300, 33);  // slower exemplar wins
  EXPECT_EQ(hist->exemplar_us(), 5000u);
  EXPECT_EQ(hist->exemplar_trace(), 22u);
  // A zero trace id never replaces a real exemplar.
  hist->OfferExemplar(9000, 0);
  EXPECT_EQ(hist->exemplar_trace(), 22u);

  Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.samples.size(), 1u);
  EXPECT_EQ(snapshot.samples[0].exemplar_us, 5000u);
  EXPECT_EQ(snapshot.samples[0].exemplar_trace, 22u);
  // The exemplar reaches the JSON rendering (hex, like log lines).
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"exemplar_trace\": \"0000000000000016\""),
            std::string::npos);
}

TEST(GetTracesRpcTest, FlightRecorderIsQueryableOverTheWire) {
  RecorderGuard guard(1024);
  net::InProcTransport network;
  dbapi::Environment env;
  rls::RlsServerConfig config;
  config.address = "rls:traced";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://traced_lrc";
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  rls::RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<rls::LrcClient> client;
  ASSERT_TRUE(
      rls::LrcClient::Connect(&network, config.address, {}, &client).ok());
  ASSERT_TRUE(client->Create("lfn-traced", "pfn://host/traced").ok());
  std::vector<std::string> targets;
  ASSERT_TRUE(client->Query("lfn-traced", &targets).ok());

  // The full ring, then filtered by method.
  rls::GetTracesResponse all;
  ASSERT_TRUE(client->GetTraces(rls::GetTracesRequest{}, &all).ok());
  EXPECT_EQ(all.capacity, 1024u);
  ASSERT_GE(all.spans.size(), 2u);

  rls::GetTracesRequest by_method;
  by_method.method = "lrc_create";
  rls::GetTracesResponse adds;
  ASSERT_TRUE(client->GetTraces(by_method, &adds).ok());
  ASSERT_EQ(adds.spans.size(), 1u);
  const rls::TraceSpan& span = adds.spans[0];
  EXPECT_EQ(span.component, "rpc");
  EXPECT_EQ(span.name, "lrc_create");
  EXPECT_NE(span.trace_id, 0u);
  // The lifecycle decomposition made it across the wire: admission,
  // queue_wait, auth, the db hops, handler residue and the reply.
  std::vector<std::string> names;
  for (const rls::TraceHop& hop : span.hops) names.push_back(hop.name);
  EXPECT_EQ(names.front(), "admission");
  EXPECT_NE(std::find(names.begin(), names.end(), "queue_wait"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "auth"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "db_txn"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "handler"), names.end());
  EXPECT_EQ(names.back(), "reply");
  // The reply hop closes the span: the stage slices cover (almost) the
  // whole request wall time.
  EXPECT_GE(span.hops.back().offset_us * 10, span.duration_us * 9);

  // The slow log answers too, slowest first.
  rls::GetTracesRequest slow;
  slow.source = rls::TraceSource::kSlowLog;
  rls::GetTracesResponse slowest;
  ASSERT_TRUE(client->GetTraces(slow, &slowest).ok());
  ASSERT_GE(slowest.spans.size(), 2u);
  EXPECT_GE(slowest.spans[0].duration_us, slowest.spans[1].duration_us);

  // GetStats surfaces the recorder vitals and the build description.
  rls::GetStatsResponse stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  EXPECT_EQ(SampleValue(stats.metrics, "trace_recorder_capacity"), 1024);
  EXPECT_GT(SampleValue(stats.metrics, "trace_recorder_depth"), 0);
  EXPECT_FALSE(stats.build_flags.empty());
  // The per-stage histograms carry exemplar trace ids for slow buckets.
  bool saw_stage_metric = false;
  for (const rls::MetricSample& m : stats.metrics) {
    if (m.name == "rpc_stage_latency_us") saw_stage_metric = true;
  }
  EXPECT_TRUE(saw_stage_metric);
  server.Stop();
}

}  // namespace
}  // namespace obs
