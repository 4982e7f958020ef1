// Overload storm: a client fleet at ~4x server capacity.
//
// Not a paper figure — the paper stops at the saturation knee (Figs. 4-7
// show rates flattening once the server is busy); this bench pushes past
// it to validate the overload-protection layer. A protected LRC
// (execution slots with a bounded wait line: at most `workers` handlers
// run at once, each on its connection's thread) is offered a Zipf-skewed
// storm with client churn and add/delete bursts at 4x its concurrency
// capacity.
// Reported: p50/p95/p99/p999 of ADMITTED requests (unloaded vs storm),
// shed fraction, and the success rate of a GetStats priority probe
// running through the storm — the lane that must never starve.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/workload.h"

namespace {

constexpr int kWorkers = 4;        // execution slots
constexpr int kQueueDepth = 4;     // readers that may wait for a slot
constexpr int kStormClients = 16;  // 4x the slots

struct PhaseResult {
  rlscommon::LatencyHistogram admitted;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> app_errors{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> reconnects{0};
  double seconds = 0;
};

std::string Cell(uint64_t us) { return std::to_string(us) + "us"; }

/// Runs `clients` storm workers for `ops_per_client` actions each.
void RunPhase(rlsbench::Testbed& bed, const std::string& address,
              const rlscommon::NameGenerator& names,
              const rlscommon::StormConfig& storm, int clients,
              uint64_t ops_per_client, PhaseResult* result) {
  std::vector<std::thread> threads;
  rlscommon::Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      rls::ClientConfig config;
      config.link = net::LinkModel::Lan100Mbit();
      config.credential.dn = "/CN=storm-client-" + std::to_string(c);
      // No retries: every shed is counted once, not retried into a
      // different latency class.
      config.retry.max_attempts = 1;
      std::unique_ptr<rls::LrcClient> client;
      if (!rls::LrcClient::Connect(bed.network(), address, config, &client).ok()) {
        std::fprintf(stderr, "storm client cannot connect\n");
        return;
      }
      rlscommon::StormStream stream(storm, static_cast<uint64_t>(c));
      for (uint64_t i = 0; i < ops_per_client; ++i) {
        rlscommon::StormAction action = stream.Next();
        if (action.reconnect) {
          // Client churn: drop the connection and come back.
          client.reset();
          if (!rls::LrcClient::Connect(bed.network(), address, config, &client)
                   .ok()) {
            return;
          }
          result->reconnects.fetch_add(1, std::memory_order_relaxed);
        }
        const std::string lfn = names.LogicalName(action.op.index);
        rlscommon::Stopwatch timer;
        rlscommon::Status s;
        switch (action.op.kind) {
          case rlscommon::OpKind::kQuery: {
            std::vector<std::string> targets;
            s = client->Query(lfn, &targets);
            break;
          }
          case rlscommon::OpKind::kAdd:
            s = client->Create(lfn, names.PhysicalName(action.op.index));
            break;
          case rlscommon::OpKind::kDelete:
            s = client->Delete(lfn, names.PhysicalName(action.op.index));
            break;
        }
        if (s.code() == rlscommon::ErrorCode::kUnavailable) {
          result->shed.fetch_add(1, std::memory_order_relaxed);
          // Honor the server's hint the way a polite client would —
          // sustained overload, not a tight shed/retry spin.
          if (s.retry_after().count() > 0) {
            std::this_thread::sleep_for(s.retry_after());
          }
          continue;
        }
        result->admitted.Record(timer.Elapsed());
        if (s.ok() || s.code() == rlscommon::ErrorCode::kNotFound ||
            s.code() == rlscommon::ErrorCode::kAlreadyExists) {
          result->ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          result->app_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result->seconds = std::chrono::duration<double>(wall.Elapsed()).count();
}

}  // namespace

int main() {
  rlsbench::Banner(
      "Overload storm: Zipf queries + churn + bursts at 4x capacity",
      "beyond Figs. 4-7 (past the saturation knee)",
      "protected LRC: workers=" + std::to_string(kWorkers) +
          " execution slots, queue_depth=" + std::to_string(kQueueDepth) +
          " waiting readers, storm_clients=" + std::to_string(kStormClients));

  rlsbench::Testbed bed;
  rls::ServerLimits limits;
  limits.workers = kWorkers;
  limits.queue_depth = kQueueDepth;
  limits.retry_after = std::chrono::milliseconds(5);
  rls::RlsServer* lrc =
      bed.StartLrc("lrc:overload", rdb::BackendProfile::MySQL(), {}, limits);

  const uint64_t universe = rlsbench::Scaled(100000, 1000);
  bed.Preload(lrc, universe, "storm");
  const rlscommon::NameGenerator names("storm");

  rlscommon::StormConfig storm;
  storm.universe = universe;
  storm.zipf_exponent = 0.99;
  storm.query_fraction = 0.70;
  storm.add_fraction = 0.15;
  storm.burst_probability = 0.02;
  storm.burst_length = 16;
  storm.churn_probability = 0.002;
  storm.seed = 42;

  const uint64_t ops_per_client = rlsbench::Scaled(20000, 500);

  // Phase 1 — unloaded: one client, same mix, no contention.
  PhaseResult unloaded;
  {
    rlscommon::StormConfig calm = storm;
    calm.churn_probability = 0;  // churn is a storm property
    RunPhase(bed, "lrc:overload", names, calm, 1, ops_per_client, &unloaded);
  }

  // Phase 2 — storm at 4x capacity, with a GetStats probe riding the
  // priority lane the whole time.
  PhaseResult stormed;
  std::atomic<bool> probe_stop{false};
  std::atomic<uint64_t> probe_ok{0}, probe_failed{0};
  std::thread probe([&] {
    rls::ClientConfig config;
    config.credential.dn = "/CN=monitor";
    config.retry.max_attempts = 1;
    std::unique_ptr<rls::LrcClient> client;
    if (!rls::LrcClient::Connect(bed.network(), "lrc:overload", config, &client)
             .ok()) {
      return;
    }
    while (!probe_stop.load()) {
      rls::GetStatsResponse snap;
      if (client->GetStats(&snap).ok()) {
        probe_ok.fetch_add(1);
      } else {
        probe_failed.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  RunPhase(bed, "lrc:overload", names, storm, kStormClients, ops_per_client,
           &stormed);
  probe_stop.store(true);
  probe.join();

  rlsbench::Table table({"phase", "clients", "admitted", "shed", "shed%",
                         "p50", "p95", "p99", "p999", "ops/s"});
  auto add_row = [&](const std::string& phase, int clients, PhaseResult& r) {
    const auto snap = r.admitted.GetSnapshot();
    const uint64_t total = snap.count + r.shed.load();
    char shed_pct[32], rate[32];
    std::snprintf(shed_pct, sizeof(shed_pct), "%.1f",
                  total ? 100.0 * static_cast<double>(r.shed.load()) /
                              static_cast<double>(total)
                        : 0.0);
    std::snprintf(rate, sizeof(rate), "%.0f",
                  r.seconds > 0 ? static_cast<double>(snap.count) / r.seconds
                                : 0.0);
    table.AddRow({phase, std::to_string(clients), std::to_string(snap.count),
                  std::to_string(r.shed.load()), shed_pct, Cell(snap.p50_us),
                  Cell(snap.p95_us), Cell(snap.p99_us), Cell(snap.p999_us),
                  rate});
  };
  add_row("unloaded", 1, unloaded);
  add_row("storm 4x", kStormClients, stormed);
  table.Print();

  const auto base = unloaded.admitted.GetSnapshot();
  const auto peak = stormed.admitted.GetSnapshot();
  const uint64_t baseline_p99 = base.p99_us ? base.p99_us : 1;
  std::printf(
      "\nstorm: %llu reconnects (churn), admitted p99 %.1fx unloaded p99 "
      "(acceptance: <= 5x)\n",
      static_cast<unsigned long long>(stormed.reconnects.load()),
      static_cast<double>(peak.p99_us) / static_cast<double>(baseline_p99));
  std::printf("priority probe through the storm: %llu ok, %llu failed\n",
              static_cast<unsigned long long>(probe_ok.load()),
              static_cast<unsigned long long>(probe_failed.load()));
  const rls::GetStatsResponse stats = lrc->GetStatsSnapshot();
  std::printf("server stats: %.0f served, %.0f shed\n",
              obs::SampleValue(stats.metrics, "rpc_requests_total", obs::kAnyLabels),
              obs::SampleValue(stats.metrics, "rpc_shed_total", obs::kAnyLabels));
  return 0;
}
