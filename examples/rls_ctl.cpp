// rls_ctl: command-line client for a running rls_serverd, in the style
// of globus-rls-cli.
//
//   build/examples/rls_ctl <address> <command> [args...]
//
// <address> is an endpoint printed by rls_serverd — usually a literal
// tcp://ip:port, which makes this a genuinely separate OS process
// talking to the server over real sockets.
//
// Commands (LRC role):
//   ping                        liveness round trip
//   create <lfn> <pfn>          new logical name + first mapping
//   add <lfn> <pfn>             additional mapping
//   delete <lfn> <pfn>          remove one mapping
//   query <lfn>                 mappings for one logical name
//   wildcard <pattern> [limit]  '*'/'?' pattern query
//   exists <lfn>                0 if mapped, 1 if not
//   stats                       catalog size, requests and updates
//                               (GetStats registry samples)
//   metrics                     per-method latency histograms
//   rlilist                     RLIs this LRC updates
//   force-update                flush pending updates to the RLIs now
// Commands (RLI role):
//   rli-query <lfn>             LRC(s) that hold the name
//   lrclist                     LRCs that update this RLI
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "rls/client.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rls_ctl <address> <command> [args...]\n"
               "  LRC: ping | create <lfn> <pfn> | add <lfn> <pfn> |\n"
               "       delete <lfn> <pfn> | query <lfn> |\n"
               "       wildcard <pattern> [limit] | exists <lfn> |\n"
               "       stats | metrics | rlilist | force-update\n"
               "  RLI: rli-query <lfn> | lrclist\n"
               "  stats and metrics print samples of the server's GetStats registry\n");
  return 2;
}

/// Prints the status and exits nonzero on failure; returns on success.
void Check(const rlscommon::Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "rls_ctl: %s\n", status.ToString().c_str());
  std::exit(1);
}

void PrintList(const std::vector<std::string>& items) {
  for (const std::string& item : items) std::printf("%s\n", item.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string address = argv[1];
  const std::string command = argv[2];

  // The transport follows the target address: a tcp:// endpoint gets the
  // socket stack, anything else the in-process fabric (only useful for
  // exercising the CLI inside one process, e.g. under a test harness).
  std::unique_ptr<net::Transport> transport = net::MakeTransport(
      address.rfind("tcp://", 0) == 0 ? address : std::string());
  if (!transport) {
    std::fprintf(stderr, "rls_ctl: cannot build transport for %s\n",
                 address.c_str());
    return 1;
  }

  rls::ClientConfig config;
  config.identity = "rls_ctl";

  if (command == "rli-query" || command == "lrclist") {
    std::unique_ptr<rls::RliClient> rli;
    Check(rls::RliClient::Connect(transport.get(), address, config, &rli));
    std::vector<std::string> names;
    if (command == "rli-query") {
      if (argc != 4) return Usage();
      Check(rli->Query(argv[3], &names));
    } else {
      Check(rli->LrcList(&names));
    }
    PrintList(names);
    return 0;
  }

  std::unique_ptr<rls::LrcClient> lrc;
  Check(rls::LrcClient::Connect(transport.get(), address, config, &lrc));

  if (command == "ping") {
    Check(lrc->Ping());
    std::printf("ok\n");
  } else if (command == "create" || command == "add" || command == "delete") {
    if (argc != 5) return Usage();
    if (command == "create") Check(lrc->Create(argv[3], argv[4]));
    else if (command == "add") Check(lrc->Add(argv[3], argv[4]));
    else Check(lrc->Delete(argv[3], argv[4]));
  } else if (command == "query") {
    if (argc != 4) return Usage();
    std::vector<std::string> targets;
    Check(lrc->Query(argv[3], &targets));
    PrintList(targets);
  } else if (command == "wildcard") {
    if (argc != 4 && argc != 5) return Usage();
    const uint32_t limit = argc == 5 ? std::strtoul(argv[4], nullptr, 10) : 100;
    std::vector<rls::Mapping> results;
    Check(lrc->WildcardQuery(argv[3], limit, &results));
    for (const rls::Mapping& m : results) {
      std::printf("%s -> %s\n", m.logical.c_str(), m.target.c_str());
    }
  } else if (command == "exists") {
    if (argc != 4) return Usage();
    const rlscommon::Status status = lrc->Exists(argv[3]);
    if (status.ok()) {
      std::printf("exists\n");
    } else {
      std::printf("%s\n", status.ToString().c_str());
      return 1;
    }
  } else if (command == "stats") {
    rls::GetStatsResponse stats;
    Check(lrc->GetStats(&stats));
    auto value = [&](std::string_view name, std::string_view labels = "") {
      return obs::SampleValue(stats.metrics, name, labels);
    };
    const bool lrc_role = stats.role != "rli";  // an LRC reports its own catalog
    std::printf("lfns=%.0f mappings=%.0f requests_served=%.0f "
                "updates_sent=%.0f updates_received=%.0f bloom_filters=%.0f\n",
                value(lrc_role ? "lrc_logical_names" : "rli_logical_names"),
                value(lrc_role ? "lrc_mappings" : "rli_associations"),
                value("rpc_requests_total", obs::kAnyLabels),
                value("ss_updates_sent_total", obs::kAnyLabels),
                value("rli_updates_received_total"), value("rli_bloom_filters"));
  } else if (command == "metrics") {
    rls::GetStatsResponse stats;
    Check(lrc->GetStats(&stats));
    for (const rls::MetricSample& m : stats.metrics) {
      if (m.name != "rpc_request_latency_us") continue;
      std::printf("%-32s count=%-6llu mean=%.0fus p50=%lluus p95=%lluus "
                  "p99=%lluus\n",
                  m.labels.c_str(), static_cast<unsigned long long>(m.value),
                  m.mean_us, static_cast<unsigned long long>(m.p50_us),
                  static_cast<unsigned long long>(m.p95_us),
                  static_cast<unsigned long long>(m.p99_us));
    }
  } else if (command == "rlilist") {
    std::vector<std::string> rlis;
    Check(lrc->RliList(&rlis));
    PrintList(rlis);
  } else if (command == "force-update") {
    Check(lrc->ForceUpdate());
    std::printf("ok\n");
  } else {
    return Usage();
  }
  return 0;
}
