// rls_perf, the RLS performance benchmark: runs one workload in this process.
//
//   rls_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>]
//
// Every workload builds its servers in this process and preloads a
// catalog derived from the seed, several times over. On each of the last
// set-ups it drives four client connections through an open-loop warm-up,
// an open-loop phase at the workload's fixed offered rate and a
// closed-loop peak phase, and checks every answer against its model of
// the catalog. Prints a readable summary, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
//
// Exit codes: 0 all answers correct; 1 a wrong answer, a failed call or
// a catalog-size mismatch; 2 bad usage or a set-up failure; 3 an invalid
// open loop, judged over the windows of all set-ups (generator behind
// schedule, a built-up backlog or too few samples beyond a percentile).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog.h"
#include "ladder.h"
#include "loadgen.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"
#include "report.h"
#include "rls/protocol.h"
#include "rls/rls_server.h"
#include "workload.h"

namespace perfbench {
namespace {

using rlscommon::Status;

constexpr int kClosedDepth = 8;          // calls in flight per connection
constexpr int kWindows = 18;             // report windows per timed phase, over all set-ups
constexpr int kRoundsPerSetUp = 4;       // soft-state rounds timed after each set-up
constexpr int kLoadedSetUps = 3;         // set-ups the load is spread over
constexpr auto kUpdatePeriod = std::chrono::milliseconds(1000);  // rli_bloom_100 rounds under load
constexpr std::size_t kTraceCapacity = 8192;
// Open-loop validity: the generator's lag p90 as a share of the read p90
// (latency is timed from the scheduled send, so lag counts as latency;
// beyond this share the gated tail is mostly the generator's), and the
// median number of calls in flight as seconds of offered load.
constexpr double kMaxLagShare = 0.75;
constexpr double kMaxBacklogSeconds = 0.02;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// ---------------------------------------------------------------------
// Topology: the servers of one set-up, all in this process.
// ---------------------------------------------------------------------

struct Topology {
  std::unique_ptr<net::Transport> transport;
  dbapi::Environment env;
  std::unique_ptr<rls::RlsServer> rli;  // Bloom-only RLI the LRC updates
  std::unique_ptr<rls::RlsServer> lrc;  // the LRC (also the RLI in rli_bloom_100)
  std::string client_address;
  double bloom_build_ms = 0;

  ~Topology() {
    if (lrc) lrc->Stop();
    if (rli) rli->Stop();
    lrc.reset();
    rli.reset();
  }

  rls::RliBloomStore* bloom_rli() { return rli ? rli->rli_bloom() : lrc->rli_bloom(); }

  static constexpr const char* kLrcDsn = "mysql://lrc";
};

Status StartServer(Topology* topo, rls::RlsServerConfig config,
                   std::unique_ptr<rls::RlsServer>* out) {
  *out = std::make_unique<rls::RlsServer>(topo->transport.get(), std::move(config),
                                          &topo->env);
  return (*out)->Start();
}

/// Builds servers, preloads the catalog and brings the RLI up to date.
Status SetUp(const RlsWorkload& workload, Topology* topo) {
  const Spec& spec = workload.spec();
  topo->transport = net::MakeTransport(spec.transport);
  if (!topo->transport) return Status::InvalidArgument("bad transport");

  // The log is kept in memory (bytes accounted, no file): writes of a
  // file-backed log stall for tens of milliseconds under page-cache
  // writeback on a shared virtual disk. The durable log is timed by the
  // ladder instead.
  rdb::BackendProfile profile = rdb::BackendProfile::MySQL();
  profile.durable_flush = false;
  profile.durable_flush_penalty = std::chrono::microseconds(0);
  Status s = topo->env.CreateDatabaseWithProfile(Topology::kLrcDsn, profile);
  if (!s.ok()) return s;

  const bool combined = spec.kind == Kind::kRliBloom100;
  rls::RlsServerConfig config;
  config.address = combined ? RlsWorkload::kCombinedAddress : RlsWorkload::kLrcAddress;
  config.url = config.address;
  config.lrc.enabled = true;
  config.lrc.dsn = Topology::kLrcDsn;
  config.lrc.update.mode = rls::UpdateMode::kBloom;
  config.lrc.update.bloom_expected_entries = spec.catalog;
  rls::UpdateTarget target;
  target.address = combined ? RlsWorkload::kCombinedAddress : RlsWorkload::kRliAddress;
  config.lrc.update.targets.push_back(target);
  if (combined) {
    config.rli.enabled = true;  // no DSN: Bloom-only
  } else {
    rls::RlsServerConfig rli_config;
    rli_config.address = RlsWorkload::kRliAddress;
    rli_config.rli.enabled = true;
    s = StartServer(topo, rli_config, &topo->rli);
    if (!s.ok()) return s;
  }
  s = StartServer(topo, config, &topo->lrc);
  if (!s.ok()) return s;
  topo->client_address = config.address;

  const std::string& corpus = workload.corpus();
  s = topo->lrc->lrc_store()->BulkLoad(spec.catalog, [&corpus](uint64_t i) {
    return rls::Mapping{Lfn(corpus, i), Pfn(corpus, i, 0)};
  });
  if (!s.ok()) return s;
  const int64_t build_start = NowNs();
  s = topo->lrc->update_manager()->RebuildBloomFilter();
  if (!s.ok()) return s;
  topo->bloom_build_ms = (NowNs() - build_start) / 1e6;
  if (combined) {
    for (int j = 0; j < kSyntheticLrcs; ++j) {
      topo->lrc->rli_bloom()->StoreFilter(workload.lrc_urls()[j], workload.filters()[j]);
    }
  }
  return topo->lrc->update_manager()->ForceFullUpdate();
}

// ---------------------------------------------------------------------
// Helpers over the server registry.
// ---------------------------------------------------------------------

/// Count-weighted mean of every histogram named `name` whose labels
/// contain `label` (microseconds); 0 when nothing was recorded.
double HistogramMean(const obs::Snapshot& snap, const std::string& name,
                     const std::string& label) {
  double sum = 0;
  uint64_t count = 0;
  for (const obs::Sample& sample : snap.samples) {
    if (sample.name != name || sample.labels.find(label) == std::string::npos) continue;
    sum += sample.hist.mean_us * static_cast<double>(sample.hist.count);
    count += sample.hist.count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0;
}

const obs::Sample* FindSample(const obs::Snapshot& snap, const std::string& name,
                              const std::string& labels) {
  for (const obs::Sample& sample : snap.samples) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

void PrintWindows(const char* what, const WindowedQuantiles& q) {
  std::printf("  %-24s n=%zu p50=%.1f us p90=%.1f us (lower quartiles of %zu windows, each "
              "with >= %zu samples beyond its p90); p99=%.1f us over all (%zu samples beyond)\n",
              what, q.all.n, q.p50, q.p90, q.window_p50.size(), q.min_beyond_p90, q.all.p99,
              q.all.beyond_p99);
  std::printf("  %-24s windows p50", "");
  for (double v : q.window_p50) std::printf(" %.1f", v);
  std::printf(" | p90");
  for (double v : q.window_p90) std::printf(" %.1f", v);
  std::printf("\n");
}

/// The measured open-loop phase and what the run reports of it.
struct OpenLoop {
  PhaseResult load;
  WindowedQuantiles read, write, ping, lag;
  double in_flight_median = 0;  // calls in flight over the phases' second halves
  std::string invalid;          // why the phase is invalid; empty if valid
};

/// Summarizes an open-loop phase and checks its validity: a generator
/// that fell behind its schedule, a backlog that built up, or too few
/// samples beyond a reported percentile make it invalid rather than slow.
/// Like the reported latencies, the limits apply to quartiles over
/// windows and medians over samples, so a host stall that disturbs some
/// windows is reported in the tail but does not void the run.
OpenLoop SummarizeOpenLoop(const Spec& spec, PhaseResult load) {
  OpenLoop open;
  open.read = SummarizeWindows(load.read_us);
  open.write = SummarizeWindows(load.write_us);
  open.ping = SummarizeWindows(load.ping_us);
  open.lag = SummarizeWindows(load.lag_us);
  open.in_flight_median = Median(std::vector<double>(load.in_flight_late.begin(),
                                                     load.in_flight_late.end()));
  const double backlog_limit = std::max(64.0, spec.offered_rate * kMaxBacklogSeconds);
  if (open.lag.p90 > kMaxLagShare * open.read.p90) {
    open.invalid = "generator lag p90 above 3/4 of the read p90";
  }
  if (open.in_flight_median > backlog_limit) {
    open.invalid = "backlog above 20 ms of offered load";
  }
  if (open.read.min_beyond_p90 < 10 || open.write.min_beyond_p90 < 10 ||
      open.read.all.beyond_p99 < 10 || open.write.all.beyond_p99 < 10) {
    open.invalid = "too few samples beyond a reported percentile";
  }
  open.load = std::move(load);
  return open;
}

/// Periodic full soft-state rounds while clients query (rli_bloom_100):
/// each round rebuilds the LRC's filter snapshot and replaces it at the
/// RLI under the store's exclusive lock.
class UpdateTicker {
 public:
  explicit UpdateTicker(rls::UpdateManager* manager) : manager_(manager) {
    thread_ = std::thread([this] {
      auto next = std::chrono::steady_clock::now() + kUpdatePeriod;
      while (!stop_.load()) {
        std::this_thread::sleep_until(next);
        next += kUpdatePeriod;
        if (stop_.load()) break;
        ++rounds_;
        if (!manager_->ForceFullUpdate().ok()) ++failed_;
      }
    });
  }
  ~UpdateTicker() { Stop(); }
  UpdateTicker(const UpdateTicker&) = delete;
  UpdateTicker& operator=(const UpdateTicker&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  uint64_t rounds() const { return rounds_; }
  uint64_t failed() const { return failed_; }

 private:
  rls::UpdateManager* manager_;
  std::atomic<bool> stop_{false};
  uint64_t rounds_ = 0;
  uint64_t failed_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

/// What the load on one set-up gave.
struct Load {
  PhaseResult open;              // the measured open-loop phase
  obs::Snapshot open_snapshot;   // the server registry after it
  PhaseResult peak;              // the closed-loop phase
  double peak_cpu_us = 0;        // process CPU time over the closed loop
  double traced_peak_ops_s = 0;  // traced runs: the traced closed loop
};

/// Connects the clients to `topo` and runs the warm-up, the measured open
/// loop and the closed loop, together `seconds` long. `seed` sets the op
/// streams and arrival schedules. Returns 0, or the exit code of a failure.
int RunLoad(const Args& args, const Spec& spec, RlsWorkload* workload, Topology* topo,
            uint64_t seed, double seconds, int windows, uint64_t* attempted, uint64_t* failed,
            Load* out) {
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int i = 0; i < kLanes; ++i) {
    std::unique_ptr<net::RpcClient> client;
    const Status s = net::RpcClient::Connect(topo->transport.get(), topo->client_address,
                                             net::ClientOptions{}, &client);
    if (!s.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
      return 2;
    }
    lanes.push_back(std::make_unique<Lane>(std::move(client), workload, seed, i));
  }
  auto tally = [&](const PhaseResult& r) {
    *attempted += r.attempted;
    *failed += r.failed;
  };

  // Warm-up: one second of the open-loop schedule, not reported.
  workload->SetLaneRoles(true);
  PhaseOptions open;
  open.open_loop = true;
  open.rate = spec.offered_rate;
  open.seconds = 1;
  open.drain = false;  // pairs run on into the measured phase
  open.seed = seed;
  tally(RunPhase(lanes, workload, open));

  // The measured phase; its validity is judged once the phases of all
  // set-ups are pooled.
  open.seconds = seconds * 0.6;
  open.windows = windows;
  open.spans = args.trace;
  open.seed = seed + 1;
  if (args.trace) obs::SpanRecorder::Global().Enable(kTraceCapacity);
  out->open = RunPhase(lanes, workload, open);
  out->open_snapshot = topo->lrc->metrics_registry()->TakeSnapshot();
  tally(out->open);
  if (args.trace) obs::SpanRecorder::Global().Disable();  // untraced peak next

  workload->SetLaneRoles(false);
  PhaseOptions closed;
  closed.open_loop = false;
  closed.seconds = seconds * (args.trace ? 0.2 : 0.4);
  closed.depth = kClosedDepth;
  closed.windows = windows;
  closed.verify = false;  // the exact RLI check stays off the saturated path
  // rli_bloom_100: the LRC sends a full update every second while the
  // clients saturate the server.
  auto run_closed = [&] {
    std::unique_ptr<UpdateTicker> ticker;
    if (spec.kind == Kind::kRliBloom100) {
      ticker = std::make_unique<UpdateTicker>(topo->lrc->update_manager());
    }
    PhaseResult result = RunPhase(lanes, workload, closed);
    if (ticker) {
      ticker->Stop();
      *attempted += ticker->rounds();
      *failed += ticker->failed();
    }
    tally(result);
    return result;
  };
  const double cpu_before = CpuMicros();
  out->peak = run_closed();
  out->peak_cpu_us = CpuMicros() - cpu_before;
  if (args.trace) {
    obs::SpanRecorder::Global().Enable(kTraceCapacity);
    closed.spans = true;
    out->traced_peak_ops_s = Quantile(run_closed().window_ops_s, 1 - kBestQuartile);
  }
  return 0;
}

int Run(const Args& args) {
  const Spec* spec = FindSpec(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RlsWorkload workload(*spec, args.seed);
  if (spec->kind == Kind::kRliBloom100) workload.BuildSyntheticFilters();
  std::printf("workload %s seed %llu: %llu preloaded mappings, transport %s, offered %.0f ops/s, "
              "%d connections, WAL in memory\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(spec->catalog), spec->transport,
              spec->offered_rate, kLanes);

  // Files of this run: the ladder's durable log.
  const std::string run_dir = args.work_dir + "/" + spec->name;
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", run_dir.c_str());
    return 2;
  }

  // Each set-up is timed and followed by soft-state rounds timed back to
  // back with no client connected; the last kLoadedSetUps set-ups then
  // carry a share of the load each. Rounds of one set-up agree within a
  // few percent, while set-ups, each with its own allocations, differ by
  // up to a fifth, so figures pooled over several set-ups are steadier.
  const int setups = args.trace ? 1 : spec->setups;
  const int loaded = std::min(setups, kLoadedSetUps);
  uint64_t attempted = 0, failed = 0;
  std::vector<double> setup_s, rounds_ms;
  uint64_t ss_bytes = 0;
  PhaseResult open, peak;  // pooled over the loaded set-ups
  double peak_cpu_us = 0;
  Load last;
  MetricSet metrics;
  std::unique_ptr<Topology> topo;
  for (int i = 0; i < setups; ++i) {
    topo.reset();
    topo = std::make_unique<Topology>();
    const int64_t t0 = NowNs();
    const Status s = SetUp(workload, topo.get());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 2;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    rls::UpdateManager* updates = topo->lrc->update_manager();
    const uint64_t bytes_before = updates->stats().bytes_sent;
    for (int r = 0; r < kRoundsPerSetUp; ++r) {
      const int64_t r0 = NowNs();
      ++attempted;
      if (!updates->ForceFullUpdate().ok()) ++failed;
      rounds_ms.push_back((NowNs() - r0) / 1e6);
    }
    ss_bytes += updates->stats().bytes_sent - bytes_before;
    if (i < setups - loaded) continue;

    Load load;
    const uint64_t load_seed = args.seed + (static_cast<uint64_t>(i) << 32);
    const int code = RunLoad(args, *spec, &workload, topo.get(), load_seed, args.seconds / loaded,
                             kWindows / loaded, &attempted, &failed, &load);
    if (code != 0) return code;
    AppendPhase(&open, std::move(load.open));
    AppendPhase(&peak, std::move(load.peak));
    peak_cpu_us += load.peak_cpu_us;
    last = std::move(load);

    // The catalog is back to its preload, and the RLI holds every filter.
    rls::LrcStore* store = topo->lrc->lrc_store();
    const uint64_t lfn_count = store->LogicalNameCount();
    const uint64_t mapping_count = store->MappingCount();
    const std::size_t filter_count = topo->bloom_rli()->filter_count();
    const std::size_t filters_expected =
        spec->kind == Kind::kRliBloom100 ? kSyntheticLrcs + 1 : 1;
    std::printf("  %-24s lfn_count=%llu mapping_count=%llu filters=%zu (expected %llu, %llu, "
                "%zu)\n",
                "catalog after load", static_cast<unsigned long long>(lfn_count),
                static_cast<unsigned long long>(mapping_count), filter_count,
                static_cast<unsigned long long>(spec->catalog),
                static_cast<unsigned long long>(spec->catalog), filters_expected);
    if (lfn_count != spec->catalog || mapping_count != spec->catalog ||
        filter_count != filters_expected) {
      ++failed;
    }

    // --- per-layer ladder (traced runs) ---
    if (args.trace) {
      LadderContext context;
      context.store = store;
      context.env = &topo->env;
      context.dsn = Topology::kLrcDsn;
      context.rli = topo->bloom_rli();
      context.corpus = workload.corpus();
      context.catalog = spec->catalog;
      context.fresh_corpus = "ladder." + workload.fresh_corpus();
      context.rli_probes = spec->kind == Kind::kRliBloom100
                               ? workload.RliProbes(args.seed, 1 << 15)
                               : std::vector<std::string>{Lfn(workload.corpus(), 0)};
      context.seed = args.seed;
      context.wal_dir = run_dir;
      const LadderTally ladder = RunLadder(context, &metrics);
      attempted += ladder.attempted;
      failed += ladder.failed;
      obs::SpanRecorder::Global().Disable();
    }
  }
  const double update_round_ms = Median(rounds_ms);
  const double ss_bytes_per_round = ss_bytes / static_cast<double>(rounds_ms.size());
  const double peak_ops_s = Quantile(peak.window_ops_s, 1 - kBestQuartile);
  const OpenLoop measured = SummarizeOpenLoop(*spec, std::move(open));
  const WindowedQuantiles& read = measured.read;
  const WindowedQuantiles& write = measured.write;
  const WindowedQuantiles& lag = measured.lag;
  const double ping_us = measured.ping.p50;

  std::printf("  %-24s %.3f s (median of %zu)\n", "setup", Median(setup_s), setup_s.size());
  std::printf("  open loop %.1f s at %.0f ops/s over %d set-ups: %llu calls (%llu reads, %llu "
              "writes), latency from scheduled send time\n",
              args.seconds * 0.6, spec->offered_rate, loaded,
              static_cast<unsigned long long>(measured.load.scheduled),
              static_cast<unsigned long long>(measured.load.reads),
              static_cast<unsigned long long>(measured.load.writes));
  PrintWindows("read", read);
  PrintWindows("write", write);
  PrintWindows("generator lag", lag);
  std::printf("  %-24s %llu sends waited for a chain predecessor\n", "chain waits",
              static_cast<unsigned long long>(measured.load.chain_waits));
  std::printf("  %-24s n=%zu p50=%.1f us\n", "ping", measured.ping.all.n, ping_us);
  std::printf("  %-24s at most %llu calls in flight at a schedule end, median %.0f in the "
              "2nd halves\n",
              "backlog", static_cast<unsigned long long>(measured.load.backlog_end),
              measured.in_flight_median);
  std::printf("  %-24s %.0f ops/s, upper quartile of %zu windows (%d connections x depth %d):",
              "closed-loop peak", peak_ops_s, peak.window_ops_s.size(), kLanes, kClosedDepth);
  for (double v : peak.window_ops_s) std::printf(" %.0f", v);
  std::printf("\n");
  std::printf("  %-24s median %.3f ms over %zu rounds, %.0f bytes/round:", "soft-state round",
              update_round_ms, rounds_ms.size(), ss_bytes_per_round);
  for (double v : rounds_ms) std::printf(" %.2f", v);
  std::printf("\n");
  std::printf("  %-24s %llu of %llu calls (failed_frac %.6g)\n", "failed",
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);

  // Traced runs report no end-to-end latency, and their span recording
  // slows the generator by design, so they are not held to the limits.
  if (!args.trace && !measured.invalid.empty()) {
    std::printf("  %-24s invalid (%s)\n", "open loop", measured.invalid.c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "invalid open-loop run: %s\n", measured.invalid.c_str());
    return 3;
  }

  if (!args.trace) {
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("read_p50_us", read.p50, "us");
    metrics.Set("read_p90_us", read.p90, "us");
    metrics.Set("write_p50_us", write.p50, "us");
    metrics.Set("write_p90_us", write.p90, "us");
    metrics.Set("peak_ops_s", peak_ops_s, "ops/s");
    metrics.Set("rss_mb", PeakRssMb(), "MiB");
  } else {
    const obs::Snapshot& snapshot = last.open_snapshot;
    for (const char* stage :
         {"admission", "queue_wait", "auth", "db_txn", "wal_sync", "handler", "reply"}) {
      metrics.Set(std::string("net.stage_us.") + stage,
                  HistogramMean(snapshot, "rpc_stage_latency_us", obs::Label("stage", stage)),
                  "us");
    }
    const uint16_t read_op =
        spec->kind == Kind::kRliBloom100 ? rls::kRliQueryLfn : rls::kLrcQueryLfn;
    const obs::Sample* server = FindSample(snapshot, "rpc_request_latency_us",
                                           obs::Label("method", rls::OpName(read_op)));
    // The histogram's p50/p99 are upper edges of power-of-two buckets;
    // its mean (total / count) is exact, so the client gap uses it.
    const double server_mean = server ? server->hist.mean_us : 0;
    metrics.Set("net.rpc_server_us.p50", server ? static_cast<double>(server->hist.p50_us) : 0,
                "us");
    metrics.Set("net.rpc_server_us.p99", server ? static_cast<double>(server->hist.p99_us) : 0,
                "us");
    metrics.Set("net.rpc_server_us.mean", server_mean, "us");
    metrics.Set("net.client_gap_us", read.p50 - server_mean, "us");
    metrics.Set("client.read_p99_us", read.all.p99, "us");
    metrics.Set("client.write_p99_us", write.all.p99, "us");
    metrics.Set("net.ping_rtt_us", ping_us, "us");
    metrics.Set("net.bytes_per_op",
                measured.load.bytes_sent / static_cast<double>(measured.load.scheduled), "bytes");
    metrics.Set("rls.update_manager.round_ms", update_round_ms, "ms");
    metrics.Set("rls.update_manager.bytes_per_round", ss_bytes_per_round, "bytes");
    metrics.Set("rls.update_manager.bloom_build_ms", topo->bloom_build_ms, "ms");
    metrics.Set("process.cpu_us_per_op", peak_cpu_us / static_cast<double>(peak.scheduled),
                "us");
    metrics.Set("loadgen.lag_p90_us", lag.p90, "us");
    metrics.Set("loadgen.lag_p99_us", lag.all.p99, "us");
    metrics.Set("obs.trace_overhead_frac", 1.0 - last.traced_peak_ops_s / peak_ops_s,
                "fraction");
    const std::string trace_path =
        args.work_dir + "/" + spec->name + "-" + std::to_string(args.seed) + ".trace.json";
    if (obs::SpanRecorder::Global().ExportChromeTrace(trace_path).ok()) {
      std::printf("  %-24s %s\n", "spans", trace_path.c_str());
    }
  }

  topo.reset();
  std::filesystem::remove_all(run_dir, ec);

  const bool correct = failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rls_perf --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
