// Pegasus-style workflow planning (paper §6): the Pegasus system for
// planning and execution in Grids used 6 LRCs and 4 RLIs to register the
// locations of ~100,000 logical files. When mapping an abstract workflow
// onto Grid resources, Pegasus queries the RLS for every input file to
// decide which stages can be satisfied from existing replicas (and can
// therefore be PRUNED from the executable workflow), registers every
// produced file, and annotates replicas with attributes for staging
// decisions.
//
// This example plans a 3-stage montage-like workflow against a 6-LRC /
// 4-RLI deployment and exercises exactly those query/registration mixes.
#include <cstdio>
#include <map>

#include "dbapi/dbapi.h"
#include "rls/client.h"
#include "rls/locator.h"
#include "rls/rls_server.h"

using rlscommon::ThrowIfError;

namespace {

std::string LrcAddress(int i) { return "rls://lrc" + std::to_string(i) + ".grid.org"; }
std::string RliAddress(int i) { return "rls://rli" + std::to_string(i) + ".grid.org"; }

std::string RawInput(int i) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "lfn://montage/raw/2mass-%04d.fits", i);
  return buf;
}

std::string Projected(int i) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "lfn://montage/projected/p-%04d.fits", i);
  return buf;
}

}  // namespace

int main() {
  net::InProcTransport network;
  dbapi::Environment env;

  // --- Deployment: 4 RLIs; 6 LRCs, each updating two RLIs (redundancy).
  std::vector<std::unique_ptr<rls::RlsServer>> servers;
  for (int r = 0; r < 4; ++r) {
    const std::string dsn = "mysql://peg_rli" + std::to_string(r);
    ThrowIfError(env.CreateDatabase(dsn));
    rls::RlsServerConfig config;
    config.address = RliAddress(r);
    config.rli.enabled = true;
    config.rli.dsn = dsn;
    servers.push_back(std::make_unique<rls::RlsServer>(&network, config, &env));
    ThrowIfError(servers.back()->Start());
  }
  std::vector<rls::RlsServer*> lrcs;
  for (int l = 0; l < 6; ++l) {
    const std::string dsn = "mysql://peg_lrc" + std::to_string(l);
    ThrowIfError(env.CreateDatabase(dsn));
    rls::RlsServerConfig config;
    config.address = LrcAddress(l);
    config.lrc.enabled = true;
    config.lrc.dsn = dsn;
    config.lrc.update.mode = rls::UpdateMode::kImmediate;
    config.lrc.update.targets.push_back(rls::UpdateTarget{RliAddress(l % 4)});
    config.lrc.update.targets.push_back(rls::UpdateTarget{RliAddress((l + 1) % 4)});
    servers.push_back(std::make_unique<rls::RlsServer>(&network, config, &env));
    ThrowIfError(servers.back()->Start());
    lrcs.push_back(servers.back().get());
  }
  std::printf("deployment up: 6 LRCs, 4 RLIs (each LRC updates 2 RLIs)\n");

  // --- The sky-survey archive: raw images spread across the 6 sites.
  const int kRawImages = 600;
  for (int i = 0; i < kRawImages; ++i) {
    const int site = i % 6;
    std::unique_ptr<rls::LrcClient> client;
    ThrowIfError(rls::LrcClient::Connect(&network, LrcAddress(site), {}, &client));
    ThrowIfError(client->Create(RawInput(i), "gsiftp://data" + std::to_string(site) +
                                                 ".grid.org/2mass/" +
                                                 std::to_string(i) + ".fits"));
  }
  // SOME projected images already exist from an earlier run at site 0 —
  // Pegasus should prune the jobs that would recompute them.
  std::unique_ptr<rls::LrcClient> site0;
  ThrowIfError(rls::LrcClient::Connect(&network, LrcAddress(0), {}, &site0));
  for (int i = 0; i < 40; ++i) {
    ThrowIfError(site0->Create(Projected(i),
                               "gsiftp://data0.grid.org/projected/" +
                                   std::to_string(i) + ".fits"));
  }
  for (rls::RlsServer* lrc : lrcs) {
    ThrowIfError(lrc->update_manager()->FlushImmediate());
  }
  std::printf("archive registered: %d raw images + 40 pre-existing products\n",
              kRawImages);

  // --- Planning: no single RLI covers all 6 LRCs in this topology, so
  // Pegasus uses a ReplicaLocator over every RLI. The locator also
  // absorbs stale soft state and Bloom false positives by confirming at
  // the LRCs (paper §3.2).
  rls::ReplicaLocator planner(
      &network, {RliAddress(0), RliAddress(1), RliAddress(2), RliAddress(3)});

  // Stage 1: which products already exist anywhere on the Grid?
  const int kJobs = 100;
  std::vector<std::string> products;
  for (int i = 0; i < kJobs; ++i) products.push_back(Projected(i));
  std::map<std::string, std::vector<std::string>> found;
  ThrowIfError(planner.LocateBulk(products, &found));
  std::printf("planner: %zu/%d products already exist -> %zu jobs pruned, %zu to run\n",
              found.size(), kJobs, found.size(), kJobs - found.size());

  // --- Executing the remaining jobs: each job bulk-queries its raw
  // inputs, "computes", then registers its output with attributes.
  std::unique_ptr<rls::LrcClient> exec_site;
  ThrowIfError(rls::LrcClient::Connect(&network, LrcAddress(3), {}, &exec_site));
  ThrowIfError(exec_site->AttributeDefine("size", rls::AttrObject::kTarget,
                                          rls::AttrType::kInt));
  ThrowIfError(exec_site->AttributeDefine("created", rls::AttrObject::kTarget,
                                          rls::AttrType::kDate));
  int produced = 0;
  std::vector<rls::Mapping> outputs;
  std::vector<rls::AttrValueRequest> output_attrs;
  for (int i = 0; i < kJobs; ++i) {
    if (found.count(Projected(i))) continue;  // pruned
    // Locate the job's raw input (confirmed replicas, not just pointers).
    std::vector<std::string> raw_replicas;
    if (!planner.Locate(RawInput(i), &raw_replicas).ok()) {
      std::printf("FATAL: raw input %s not locatable\n", RawInput(i).c_str());
      return 1;
    }
    std::string target = "gsiftp://data3.grid.org/projected/" + std::to_string(i) +
                         ".fits";
    outputs.push_back(rls::Mapping{Projected(i), target});
    rls::AttrValueRequest attr;
    attr.object_name = target;
    attr.attr_name = "size";
    attr.object = rls::AttrObject::kTarget;
    attr.value = rls::AttrValue::Int(2100000 + i);
    output_attrs.push_back(attr);
    ++produced;
  }
  rls::BulkStatusResponse bulk_result;
  ThrowIfError(exec_site->BulkCreate(outputs, &bulk_result));
  ThrowIfError(exec_site->BulkAttributeAdd(output_attrs, &bulk_result));
  ThrowIfError(exec_site->ForceUpdate());
  std::printf("executed %d jobs; outputs bulk-registered at site 3 with size "
              "attributes\n", produced);

  // --- A later workflow finds EVERY product, wherever it landed.
  std::map<std::string, std::vector<std::string>> all_products;
  ThrowIfError(planner.LocateBulk(products, &all_products));
  std::printf("re-planning: %zu/%d products now resolvable across the RLIs"
              " (%llu RLI queries, %llu LRC confirmations)\n",
              all_products.size(), kJobs,
              static_cast<unsigned long long>(planner.counters().rli_queries),
              static_cast<unsigned long long>(planner.counters().lrc_queries));

  // Staging decision support: which replicas at site 3 exceed the
  // threshold? (Products i carry size 2100000 + i.)
  std::vector<rls::Attribute> big;
  ThrowIfError(exec_site->AttributeSearch("size", rls::AttrObject::kTarget,
                                          rls::AttrCmp::kGt,
                                          rls::AttrValue::Int(2100070), &big));
  std::printf("attribute search: %zu replicas above the staging threshold\n",
              big.size());

  for (auto& server : servers) server->Stop();
  std::printf("pegasus_workflow complete\n");
  return 0;
}
