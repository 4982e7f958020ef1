// rls_admin: stand up a deployment from a configuration file (the
// globus-rls-server.conf style) and walk it with the administrative
// interface — ping, stats, metrics, update-list management — the way the
// original globus-rls-admin tool did.
//
//   build/examples/rls_admin [topology.conf]
//
// Without an argument, a built-in two-LRC/one-RLI topology is used.
#include <cstdio>
#include <string_view>

#include "common/config.h"
#include "obs/metrics.h"
#include "rls/bootstrap.h"
#include "rls/client.h"

using rlscommon::Config;
using rlscommon::ThrowIfError;

namespace {

constexpr const char* kDefaultTopology = R"(
# Static RLS deployment (the paper's membership stand-in, section 3.6).
servers rli0 lrc0 lrc1

server.rli0.address      rls://rli0.example.org
server.rli0.rli_server   true
server.rli0.rli_dsn      mysql://admin_rli0
server.rli0.rli_timeout_s 300

server.lrc0.address      rls://lrc0.example.org
server.lrc0.lrc_server   true
server.lrc0.lrc_dsn      mysql://admin_lrc0
server.lrc0.update_mode  immediate
server.lrc0.update_rli   rls://rli0.example.org

server.lrc1.address      rls://lrc1.example.org
server.lrc1.lrc_server   true
server.lrc1.lrc_dsn      mysql://admin_lrc1
server.lrc1.update_mode  bloom
server.lrc1.update_bloom_expected_entries 10000
server.lrc1.update_rli   rls://rli0.example.org
)";

void PrintStats(const char* label, const rls::GetStatsResponse& stats) {
  auto value = [&](std::string_view name, std::string_view labels = "") {
    return obs::SampleValue(stats.metrics, name, labels);
  };
  const bool lrc = stats.role != "rli";  // an LRC reports its own catalog
  std::printf("%-24s lfns=%-6.0f mappings=%-6.0f requests=%-5.0f "
              "updates_sent=%.0f updates_recv=%.0f bloom_filters=%.0f\n",
              label, value(lrc ? "lrc_logical_names" : "rli_logical_names"),
              value(lrc ? "lrc_mappings" : "rli_associations"),
              value("rpc_requests_total", obs::kAnyLabels),
              value("ss_updates_sent_total", obs::kAnyLabels),
              value("rli_updates_received_total"), value("rli_bloom_filters"));
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (argc > 1) {
    ThrowIfError(Config::ParseFile(argv[1], &config));
    std::printf("topology from %s\n", argv[1]);
  } else {
    ThrowIfError(Config::ParseString(kDefaultTopology, &config));
    std::printf("using the built-in demo topology\n");
  }

  net::InProcTransport network;
  dbapi::Environment env;
  std::unique_ptr<rls::Topology> topology;
  ThrowIfError(rls::Topology::Create(config, &network, &env, &topology));
  std::printf("started %zu servers: ", topology->size());
  for (const std::string& name : topology->ServerNames()) {
    std::printf("%s ", name.c_str());
  }
  std::printf("\n\n");

  // Drive a little traffic so the admin views have something to show.
  {
    std::unique_ptr<rls::LrcClient> c0, c1;
    ThrowIfError(rls::LrcClient::Connect(&network, "rls://lrc0.example.org", {}, &c0));
    ThrowIfError(rls::LrcClient::Connect(&network, "rls://lrc1.example.org", {}, &c1));
    for (int i = 0; i < 200; ++i) {
      ThrowIfError(c0->Create("lfn://admin/a" + std::to_string(i), "gsiftp://s0/" +
                                                                       std::to_string(i)));
      ThrowIfError(c1->Create("lfn://admin/b" + std::to_string(i), "gsiftp://s1/" +
                                                                       std::to_string(i)));
    }
    std::vector<std::string> targets;
    for (int i = 0; i < 50; ++i) {
      ThrowIfError(c0->Query("lfn://admin/a" + std::to_string(i), &targets));
    }
    ThrowIfError(c0->ForceUpdate());
    ThrowIfError(c1->ForceUpdate());
  }

  // --- Admin sweep: ping + stats on every server.
  std::printf("== server statistics ==\n");
  for (const std::string& name : topology->ServerNames()) {
    rls::RlsServer* server = topology->Find(name);
    std::unique_ptr<rls::LrcClient> admin;
    ThrowIfError(rls::LrcClient::Connect(&network, server->address(), {}, &admin));
    ThrowIfError(admin->Ping());
    rls::GetStatsResponse stats;
    ThrowIfError(admin->GetStats(&stats));
    PrintStats(name.c_str(), stats);
  }

  // --- Per-method latency metrics from one busy LRC.
  std::printf("\n== lrc0 latency metrics ==\n");
  {
    std::unique_ptr<rls::LrcClient> admin;
    ThrowIfError(rls::LrcClient::Connect(&network, "rls://lrc0.example.org", {}, &admin));
    rls::GetStatsResponse stats;
    ThrowIfError(admin->GetStats(&stats));
    for (const rls::MetricSample& m : stats.metrics) {
      if (m.name != "rpc_request_latency_us") continue;
      std::printf("%-32s count=%-6llu mean=%.0fus p50=%lluus p95=%lluus p99=%lluus\n",
                  m.labels.c_str(), static_cast<unsigned long long>(m.value),
                  m.mean_us, static_cast<unsigned long long>(m.p50_us),
                  static_cast<unsigned long long>(m.p95_us),
                  static_cast<unsigned long long>(m.p99_us));
    }
  }

  // --- Index management views: whom does lrc0 update; who updates rli0?
  std::printf("\n== update topology ==\n");
  {
    std::unique_ptr<rls::LrcClient> admin;
    ThrowIfError(rls::LrcClient::Connect(&network, "rls://lrc0.example.org", {}, &admin));
    std::vector<std::string> rlis;
    // The update list lives in t_rli when managed via the client API; the
    // config-driven targets are reported by the update manager.
    ThrowIfError(admin->RliList(&rlis));
    std::printf("lrc0 t_rli update list entries: %zu (config-driven targets are "
                "static)\n", rlis.size());
  }
  {
    std::unique_ptr<rls::RliClient> admin;
    ThrowIfError(rls::RliClient::Connect(&network, "rls://rli0.example.org", {}, &admin));
    std::vector<std::string> updaters;
    ThrowIfError(admin->LrcList(&updaters));
    std::printf("rli0 is updated by %zu LRC(s):", updaters.size());
    for (const std::string& u : updaters) std::printf(" %s", u.c_str());
    std::printf("\n");
  }

  topology->StopAll();
  std::printf("\nrls_admin complete\n");
  return 0;
}
