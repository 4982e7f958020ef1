// Quickstart: stand up a Replica Location Service — one Local Replica
// Catalog (LRC) and one Replica Location Index (RLI) — register a few
// replicas, and walk the two-level lookup path exactly as a Grid client
// of the 2004 Globus RLS would.
//
//   build/examples/quickstart
#include <cstdio>

#include "dbapi/dbapi.h"
#include "obs/metrics.h"
#include "rls/client.h"
#include "rls/rls_server.h"

using rlscommon::ThrowIfError;

int main() {
  // --- 1. The fabric: an in-process network and a database environment.
  net::InProcTransport network;
  dbapi::Environment env;
  ThrowIfError(env.CreateDatabase("mysql://quickstart_lrc"));
  ThrowIfError(env.CreateDatabase("mysql://quickstart_rli"));

  // --- 2. An RLI server: answers "which LRCs know this logical name?".
  rls::RlsServerConfig rli_config;
  rli_config.address = "rls://rli.example.org";
  rli_config.rli.enabled = true;
  rli_config.rli.dsn = "mysql://quickstart_rli";
  rli_config.rli.timeout = std::chrono::seconds(600);  // soft-state timeout
  rls::RlsServer rli(&network, rli_config, &env);
  ThrowIfError(rli.Start());

  // --- 3. An LRC server: holds logical -> physical mappings for one
  // site, and sends immediate-mode soft-state updates to the RLI.
  rls::RlsServerConfig lrc_config;
  lrc_config.address = "rls://lrc.site-a.example.org";
  lrc_config.lrc.enabled = true;
  lrc_config.lrc.dsn = "mysql://quickstart_lrc";
  lrc_config.lrc.update.mode = rls::UpdateMode::kImmediate;
  lrc_config.lrc.update.targets.push_back(
      rls::UpdateTarget{"rls://rli.example.org"});
  rls::RlsServer lrc(&network, lrc_config, &env);
  ThrowIfError(lrc.Start());

  // --- 4. Register replicas through the client API (Table 1 operations).
  std::unique_ptr<rls::LrcClient> lrc_client;
  ThrowIfError(rls::LrcClient::Connect(&network, "rls://lrc.site-a.example.org",
                                       {}, &lrc_client));
  ThrowIfError(lrc_client->Create("lfn://demo/dataset-001",
                                  "gsiftp://storage.site-a.example.org/d/001"));
  ThrowIfError(lrc_client->Add("lfn://demo/dataset-001",
                               "gsiftp://tape.site-a.example.org/archive/001"));
  ThrowIfError(lrc_client->Create("lfn://demo/dataset-002",
                                  "gsiftp://storage.site-a.example.org/d/002"));
  std::printf("registered 2 logical names (one with 2 replicas) at the LRC\n");

  // Attach a size attribute to a physical replica (paper §3.1).
  ThrowIfError(lrc_client->AttributeDefine("size", rls::AttrObject::kTarget,
                                           rls::AttrType::kInt));
  ThrowIfError(lrc_client->AttributeAdd(
      "gsiftp://storage.site-a.example.org/d/001", "size",
      rls::AttrObject::kTarget, rls::AttrValue::Int(734003200)));

  // --- 5. Push soft state to the RLI (the background scheduler would do
  // this after the 30 s immediate-mode interval; force it for the demo).
  ThrowIfError(lrc_client->ForceUpdate());
  std::printf("soft-state update sent to the RLI\n");

  // --- 6. A Grid client discovers replicas: ask the RLI which LRCs know
  // the name, then ask that LRC for the replicas.
  std::unique_ptr<rls::RliClient> rli_client;
  ThrowIfError(
      rls::RliClient::Connect(&network, "rls://rli.example.org", {}, &rli_client));
  std::vector<std::string> lrcs;
  ThrowIfError(rli_client->Query("lfn://demo/dataset-001", &lrcs));
  std::printf("RLI: lfn://demo/dataset-001 is registered at %zu LRC(s):\n",
              lrcs.size());
  for (const std::string& url : lrcs) std::printf("  %s\n", url.c_str());

  std::unique_ptr<rls::LrcClient> resolver;
  ThrowIfError(rls::LrcClient::Connect(&network, lrcs[0], {}, &resolver));
  std::vector<std::string> replicas;
  ThrowIfError(resolver->Query("lfn://demo/dataset-001", &replicas));
  std::printf("LRC %s: replicas of lfn://demo/dataset-001:\n", lrcs[0].c_str());
  for (const std::string& replica : replicas) std::printf("  %s\n", replica.c_str());

  // Wildcard query across the LRC namespace.
  std::vector<rls::Mapping> matches;
  ThrowIfError(resolver->WildcardQuery("lfn://demo/*", 0, &matches));
  std::printf("wildcard lfn://demo/* matched %zu mappings\n", matches.size());

  // Attribute readback.
  std::vector<rls::Attribute> attrs;
  ThrowIfError(resolver->AttributeQuery("gsiftp://storage.site-a.example.org/d/001",
                                        rls::AttrObject::kTarget, &attrs));
  std::printf("replica attributes: %s = %s bytes\n", attrs.at(0).name.c_str(),
              attrs.at(0).value.ToString().c_str());

  // --- 7. Server statistics (monitoring interface).
  rls::GetStatsResponse stats;
  ThrowIfError(lrc_client->GetStats(&stats));
  std::printf("LRC stats: %.0f logical names, %.0f mappings, %.0f requests, "
              "%.0f updates sent\n",
              obs::SampleValue(stats.metrics, "lrc_logical_names"),
              obs::SampleValue(stats.metrics, "lrc_mappings"),
              obs::SampleValue(stats.metrics, "rpc_requests_total", obs::kAnyLabels),
              obs::SampleValue(stats.metrics, "ss_updates_sent_total", obs::kAnyLabels));

  lrc.Stop();
  rli.Stop();
  std::printf("quickstart complete\n");
  return 0;
}
