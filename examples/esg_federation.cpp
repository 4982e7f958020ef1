// Earth System Grid deployment (paper §6): ESG ran four RLS servers,
// each functioning as BOTH an LRC and an RLI, in a fully connected
// configuration storing mappings for ~40,000 physical files of climate
// model output.
//
// This example builds the 4-node mesh, registers climate datasets at
// each site, shows that any node's RLI can locate any dataset, and then
// demonstrates the soft-state property: when a site's catalog goes away,
// its entries age out of every index and the federation heals.
#include <cstdio>
#include <thread>

#include "dbapi/dbapi.h"
#include "rls/client.h"
#include "rls/rls_server.h"

using rlscommon::ThrowIfError;

namespace {

const char* kSites[] = {"ncar.ucar.edu", "llnl.gov", "ornl.gov", "isi.edu"};

std::string NodeAddress(int i) {
  return std::string("rls://esg.") + kSites[i];
}

std::string DatasetLfn(int site, int d) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "lfn://earthsystemgrid.org/%s/ccsm3/run%02d.nc",
                kSites[site], d);
  return buf;
}

}  // namespace

int main() {
  net::InProcTransport network;
  dbapi::Environment env;

  // --- Build the fully connected mesh: every node is LRC+RLI and sends
  // soft-state updates to all four nodes (including itself).
  std::vector<std::unique_ptr<rls::RlsServer>> nodes;
  for (int i = 0; i < 4; ++i) {
    const std::string lrc_dsn = "mysql://esg_lrc" + std::to_string(i);
    const std::string rli_dsn = "mysql://esg_rli" + std::to_string(i);
    ThrowIfError(env.CreateDatabase(lrc_dsn));
    ThrowIfError(env.CreateDatabase(rli_dsn));
    rls::RlsServerConfig config;
    config.address = NodeAddress(i);
    config.lrc.enabled = true;
    config.lrc.dsn = lrc_dsn;
    config.lrc.update.mode = rls::UpdateMode::kImmediate;
    for (int peer = 0; peer < 4; ++peer) {
      config.lrc.update.targets.push_back(rls::UpdateTarget{
          NodeAddress(peer), net::LinkModel::Lan100Mbit(), {}});
    }
    config.rli.enabled = true;
    config.rli.dsn = rli_dsn;
    config.rli.timeout = std::chrono::seconds(2);  // short for the demo
    nodes.push_back(std::make_unique<rls::RlsServer>(&network, config, &env));
  }
  // Start order does not matter for the mesh: update connections are
  // lazy, so nodes may come up in any order.
  for (auto& node : nodes) ThrowIfError(node->Start());
  std::printf("4-node ESG mesh up: every node is LRC+RLI, fully connected\n");

  // --- Each site publishes its local climate datasets.
  const int kDatasetsPerSite = 25;
  for (int site = 0; site < 4; ++site) {
    std::unique_ptr<rls::LrcClient> client;
    ThrowIfError(rls::LrcClient::Connect(&network, NodeAddress(site), {}, &client));
    for (int d = 0; d < kDatasetsPerSite; ++d) {
      ThrowIfError(client->Create(
          DatasetLfn(site, d),
          "gsiftp://datanode." + std::string(kSites[site]) + "/esg/run" +
              std::to_string(d) + ".nc"));
    }
    ThrowIfError(client->ForceUpdate());  // flush immediate-mode state
  }
  std::printf("each site published %d datasets and flushed soft state\n",
              kDatasetsPerSite);

  // --- Any node can locate any dataset via its own RLI.
  int located = 0;
  for (int via = 0; via < 4; ++via) {
    std::unique_ptr<rls::RliClient> rli;
    ThrowIfError(rls::RliClient::Connect(&network, NodeAddress(via), {}, &rli));
    for (int site = 0; site < 4; ++site) {
      std::vector<std::string> owners;
      if (rli->Query(DatasetLfn(site, 7), &owners).ok() && owners.size() == 1 &&
          owners[0] == NodeAddress(site)) {
        ++located;
      }
    }
  }
  std::printf("cross-site discovery: %d/16 (via every node x every site)\n", located);

  // --- The RLI management view: who updates this index?
  std::unique_ptr<rls::RliClient> probe;
  ThrowIfError(rls::RliClient::Connect(&network, NodeAddress(0), {}, &probe));
  std::vector<std::string> updaters;
  ThrowIfError(probe->LrcList(&updaters));
  std::printf("node 0's RLI is updated by %zu LRCs\n", updaters.size());

  // --- Soft state heals the federation: ornl (site 2) retires a dataset.
  {
    std::unique_ptr<rls::LrcClient> ornl;
    ThrowIfError(rls::LrcClient::Connect(&network, NodeAddress(2), {}, &ornl));
    std::vector<std::string> replicas;
    ThrowIfError(ornl->Query(DatasetLfn(2, 7), &replicas));
    ThrowIfError(ornl->Delete(DatasetLfn(2, 7), replicas[0]));
    ThrowIfError(ornl->ForceUpdate());
  }
  std::vector<std::string> owners;
  auto status = probe->Query(DatasetLfn(2, 7), &owners);
  std::printf("after retirement + update, node 0's RLI says: %s\n",
              status.ToString().c_str());

  // --- And expiration covers even a site that vanishes without sending
  // a removal: stop ncar's update flow, wait past the 2 s timeout.
  std::printf("aging out all soft state (no refresh for > timeout)...\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(2600));
  for (auto& node : nodes) node->ExpireNow();
  status = probe->Query(DatasetLfn(1, 3), &owners);
  std::printf("stale entry after timeout: %s (soft state must be refreshed "
              "periodically — paper §3.2)\n",
              status.ToString().c_str());

  // A fresh update round restores the index.
  for (int site = 0; site < 4; ++site) {
    std::unique_ptr<rls::LrcClient> client;
    ThrowIfError(rls::LrcClient::Connect(&network, NodeAddress(site), {}, &client));
    ThrowIfError(client->ForceUpdate());
  }
  ThrowIfError(probe->Query(DatasetLfn(1, 3), &owners));
  std::printf("after the next update round the entry is back: %s\n",
              owners.at(0).c_str());

  for (auto& node : nodes) node->Stop();
  std::printf("esg_federation complete\n");
  return 0;
}
