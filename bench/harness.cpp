#include "bench/harness.h"

#include <unistd.h>

#include <barrier>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/clock.h"
#include "obs/span_recorder.h"

namespace rlsbench {

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("RLS_BENCH_SCALE");
    if (!env) return 0.1;
    double v = std::atof(env);
    return v > 0 ? v : 0.1;
  }();
  return scale;
}

int Trials() {
  static const int trials = [] {
    const char* env = std::getenv("RLS_BENCH_TRIALS");
    if (!env) return 3;
    int v = std::atoi(env);
    return v > 0 ? v : 3;
  }();
  return trials;
}

uint64_t Scaled(uint64_t paper_count, uint64_t floor) {
  const double scaled = static_cast<double>(paper_count) * Scale();
  const uint64_t v = static_cast<uint64_t>(scaled);
  return v < floor ? floor : v;
}

std::chrono::microseconds FlushPenalty() {
  static const int64_t us = [] {
    const char* env = std::getenv("RLS_FLUSH_PENALTY_US");
    if (!env) return static_cast<int64_t>(8000);
    return static_cast<int64_t>(std::atoll(env));
  }();
  return std::chrono::microseconds(us);
}

void Banner(const std::string& experiment, const std::string& paper_ref,
            const std::string& notes) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("scale=%.3g trials=%d (paper: 5)\n", Scale(), Trials());
  std::printf("=====================================================================\n");
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

Testbed::Testbed() {
  // RLS_TRANSPORT selects the fabric (inproc default, tcp://127.0.0.1
  // for the socket stack); same binary, same logical addresses.
  const char* transport_uri = std::getenv("RLS_TRANSPORT");
  network_ = net::MakeTransport(transport_uri ? transport_uri : "");
  if (!network_) {
    std::fprintf(stderr, "unknown RLS_TRANSPORT '%s'\n", transport_uri);
    std::abort();
  }
  // Opt-in request tracing: RLS_TRACE_JSON=<path> turns the flight
  // recorder on for the whole run and dumps a Chrome-trace/Perfetto
  // JSON file at teardown (load in chrome://tracing or ui.perfetto.dev).
  // Ring size is a cache-footprint tradeoff, not a semantic one: 1024
  // spans (~0.4MB with hop vectors) still holds tens of milliseconds of
  // tail at full load, while a many-MB ring measurably slows the very
  // requests being traced by evicting the server's working set.
  const char* trace_path = std::getenv("RLS_TRACE_JSON");
  if (trace_path && *trace_path) {
    obs::SpanRecorder::Global().Enable(1024);
  }
}

Testbed::~Testbed() {
  WriteServerSnapshots();
  for (auto& server : servers_) server->Stop();
  const char* trace_path = std::getenv("RLS_TRACE_JSON");
  if (trace_path && *trace_path) {
    auto status = obs::SpanRecorder::Global().ExportChromeTrace(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write RLS_TRACE_JSON file %s: %s\n",
                    trace_path, status.ToString().c_str());
    } else {
      const auto stats = obs::SpanRecorder::Global().GetStats();
      std::fprintf(stderr,
                   "trace: wrote %llu spans (%llu dropped by wrap-around) to %s\n",
                   static_cast<unsigned long long>(stats.depth),
                   static_cast<unsigned long long>(stats.dropped), trace_path);
    }
  }
}

void Testbed::WriteServerSnapshots() {
  const char* path = std::getenv("RLS_BENCH_JSON");
  if (!path || !*path) return;
  FILE* f = std::fopen(path, "a");
  if (!f) {
    std::fprintf(stderr, "cannot open RLS_BENCH_JSON file %s\n", path);
    return;
  }
  for (auto& server : servers_) {
    std::fprintf(f, "%s\n", server->RenderStatsJson().c_str());
  }
  std::fclose(f);
}

rls::RlsServer* Testbed::StartLrc(const std::string& address,
                                  rdb::BackendProfile profile,
                                  rls::UpdateConfig update,
                                  rls::ServerLimits limits) {
  rls::RlsServerConfig config;
  config.address = address;
  config.url = address;
  config.limits = limits;
  config.lrc.enabled = true;
  config.lrc.dsn = std::string(profile.kind == rdb::BackendKind::kPostgreSQL
                                   ? "postgresql://bench"
                                   : "mysql://bench") +
                   std::to_string(next_db_++);
  config.lrc.update = std::move(update);
  std::string wal = "/tmp/rls_bench_wal_" + std::to_string(::getpid()) + "_" +
                    std::to_string(next_db_);
  if (!env_.CreateDatabaseWithProfile(config.lrc.dsn, profile, wal).ok()) {
    std::fprintf(stderr, "cannot create database %s\n", config.lrc.dsn.c_str());
    std::abort();
  }
  auto server = std::make_unique<rls::RlsServer>(network_.get(), config, &env_);
  if (!server->Start().ok()) {
    std::fprintf(stderr, "cannot start LRC %s\n", address.c_str());
    std::abort();
  }
  servers_.push_back(std::move(server));
  return servers_.back().get();
}

rls::RlsServer* Testbed::StartRli(const std::string& address, bool with_database,
                                  std::chrono::seconds timeout) {
  rls::RlsServerConfig config;
  config.address = address;
  config.url = address;
  config.rli.enabled = true;
  config.rli.timeout = timeout;
  if (with_database) {
    config.rli.dsn = "mysql://benchrli" + std::to_string(next_db_++);
    if (!env_.CreateDatabase(config.rli.dsn).ok()) {
      std::fprintf(stderr, "cannot create database %s\n", config.rli.dsn.c_str());
      std::abort();
    }
  }
  auto server = std::make_unique<rls::RlsServer>(network_.get(), config, &env_);
  if (!server->Start().ok()) {
    std::fprintf(stderr, "cannot start RLI %s\n", address.c_str());
    std::abort();
  }
  servers_.push_back(std::move(server));
  return servers_.back().get();
}

void Testbed::Preload(rls::RlsServer* lrc, uint64_t count, const std::string& corpus) {
  rlscommon::NameGenerator gen(corpus);
  auto status = lrc->lrc_store()->BulkLoad(count, [&](uint64_t i) {
    return rls::Mapping{gen.LogicalName(i), gen.PhysicalName(i)};
  });
  if (!status.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", status.ToString().c_str());
    std::abort();
  }
}

namespace {

template <typename Client>
double RunLoad(net::Transport* network, const std::string& address, int clients,
               int threads_per_client, uint64_t ops_per_worker,
               const std::function<void(Client&, uint64_t, uint64_t)>& op,
               net::LinkModel link) {
  const int workers = clients * threads_per_client;
  std::vector<std::unique_ptr<Client>> connections(workers);
  rls::ClientConfig config;
  config.link = link;
  for (int w = 0; w < workers; ++w) {
    if (!Client::Connect(network, address, config, &connections[w]).ok()) {
      std::fprintf(stderr, "bench client cannot connect to %s\n", address.c_str());
      std::abort();
    }
  }
  std::barrier gate(workers + 1);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      gate.arrive_and_wait();  // line up
      for (uint64_t i = 0; i < ops_per_worker; ++i) {
        op(*connections[w], static_cast<uint64_t>(w), i);
      }
      gate.arrive_and_wait();  // done
    });
  }
  gate.arrive_and_wait();
  rlscommon::Stopwatch watch;
  gate.arrive_and_wait();
  const double seconds = watch.ElapsedSeconds();
  for (auto& thread : threads) thread.join();
  const double total_ops = static_cast<double>(ops_per_worker) * workers;
  return seconds > 0 ? total_ops / seconds : 0.0;
}

}  // namespace

double RunLrcLoad(net::Transport* network, const std::string& address, int clients,
                  int threads_per_client, uint64_t ops_per_worker,
                  const std::function<void(rls::LrcClient&, uint64_t, uint64_t)>& op,
                  net::LinkModel link) {
  return RunLoad<rls::LrcClient>(network, address, clients, threads_per_client,
                                 ops_per_worker, op, link);
}

double RunRliLoad(net::Transport* network, const std::string& address, int clients,
                  int threads_per_client, uint64_t ops_per_worker,
                  const std::function<void(rls::RliClient&, uint64_t, uint64_t)>& op,
                  net::LinkModel link) {
  return RunLoad<rls::RliClient>(network, address, clients, threads_per_client,
                                 ops_per_worker, op, link);
}

}  // namespace rlsbench
