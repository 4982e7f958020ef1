// LIGO-style deployment (paper §6): the Laser Interferometer
// Gravitational Wave Observatory used the RLS to register and query
// mappings between 3 million logical file names and 30 million physical
// locations — every gravitational-wave "frame file" is replicated at
// many observatory and compute sites.
//
// This example builds a scaled-down LIGO catalog (10k logical frames x
// 5 replicas each), publishes it to an RLI with Bloom-filter compression
// (the mode LIGO ran), and runs the workloads a LIGO data-analysis job
// performs: locate every frame in a GPS-time run segment, pick replicas,
// and survive a false positive.
#include <cstdio>

#include "common/workload.h"
#include "dbapi/dbapi.h"
#include "rls/client.h"
#include "rls/rls_server.h"

using rlscommon::ThrowIfError;

namespace {

constexpr uint64_t kFrames = 10000;   // paper: 3 million logical names
constexpr uint32_t kReplicas = 5;     // paper: ~10 replicas per frame

std::string FrameLfn(uint64_t gps_start) {
  // LIGO frame naming: observatory-frametype-GPSstart-duration.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "lfn://ligo.org/frames/H-R-%09llu-16.gwf",
                static_cast<unsigned long long>(700000000 + gps_start * 16));
  return buf;
}

std::string FramePfn(uint64_t gps_start, uint32_t replica) {
  static const char* kSites[] = {"ldas.ligo-wa.caltech.edu", "ldas.ligo-la.caltech.edu",
                                 "dataserver.mit.edu", "grid.uwm.edu",
                                 "storage.aei.mpg.de"};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "gsiftp://%s/frames/H-R-%09llu-16.gwf",
                kSites[replica % 5],
                static_cast<unsigned long long>(700000000 + gps_start * 16));
  return buf;
}

}  // namespace

int main() {
  net::InProcTransport network;
  dbapi::Environment env;
  ThrowIfError(env.CreateDatabase("mysql://ligo_lrc"));

  // Bloom-mode RLI: no database, filters in memory (paper §3.4).
  rls::RlsServerConfig rli_config;
  rli_config.address = "rls://rli.ligo.caltech.edu";
  rli_config.rli.enabled = true;
  rli_config.rli.dsn = "";  // Bloom-only
  rls::RlsServer rli(&network, rli_config, &env);
  ThrowIfError(rli.Start());

  rls::RlsServerConfig lrc_config;
  lrc_config.address = "rls://lrc.ligo-wa.caltech.edu";
  lrc_config.lrc.enabled = true;
  lrc_config.lrc.dsn = "mysql://ligo_lrc";
  lrc_config.lrc.update.mode = rls::UpdateMode::kBloom;
  lrc_config.lrc.update.bloom_expected_entries = kFrames;
  lrc_config.lrc.update.targets.push_back(rls::UpdateTarget{
      "rls://rli.ligo.caltech.edu", net::LinkModel::WanLaToChicago(), {}});
  rls::RlsServer lrc(&network, lrc_config, &env);
  ThrowIfError(lrc.Start());

  // --- Publish the frame catalog (bulk initialization path, §3.3).
  std::printf("publishing %llu frames x %u replicas = %llu mappings...\n",
              static_cast<unsigned long long>(kFrames), kReplicas,
              static_cast<unsigned long long>(kFrames * kReplicas));
  rlscommon::Stopwatch publish_watch;
  // First replica via BulkLoad (fresh names), further replicas via the
  // client bulk-add API in batches of 1000.
  ThrowIfError(lrc.lrc_store()->BulkLoad(kFrames, [&](uint64_t i) {
    return rls::Mapping{FrameLfn(i), FramePfn(i, 0)};
  }));
  std::unique_ptr<rls::LrcClient> client;
  ThrowIfError(rls::LrcClient::Connect(&network, lrc.address(), {}, &client));
  for (uint32_t r = 1; r < kReplicas; ++r) {
    for (uint64_t base = 0; base < kFrames; base += 1000) {
      std::vector<rls::Mapping> batch;
      batch.reserve(1000);
      for (uint64_t i = base; i < base + 1000 && i < kFrames; ++i) {
        batch.push_back(rls::Mapping{FrameLfn(i), FramePfn(i, r)});
      }
      rls::BulkStatusResponse result;
      ThrowIfError(client->BulkAdd(batch, &result));
      if (!result.failures.empty()) {
        std::printf("unexpected bulk failures: %zu\n", result.failures.size());
        return 1;
      }
    }
  }
  std::printf("published in %.1f s (%llu mappings in the LRC)\n",
              publish_watch.ElapsedSeconds(),
              static_cast<unsigned long long>(lrc.lrc_store()->MappingCount()));

  // --- Send the Bloom summary over the WAN.
  rlscommon::Stopwatch update_watch;
  ThrowIfError(lrc.update_manager()->ForceFullUpdate());
  std::printf("Bloom update to the RLI took %.2f s (filter: %llu bits)\n",
              update_watch.ElapsedSeconds(),
              static_cast<unsigned long long>(rli.rli_bloom()->TotalFilterBits()));

  // --- A data-analysis job: locate all frames of a run segment.
  std::unique_ptr<rls::RliClient> rli_client;
  ThrowIfError(rls::RliClient::Connect(&network, rli.address(), {}, &rli_client));
  const uint64_t segment_begin = 2500, segment_end = 2600;
  std::vector<std::string> segment;
  for (uint64_t i = segment_begin; i < segment_end; ++i) {
    segment.push_back(FrameLfn(i));
  }
  std::vector<rls::Mapping> located;
  ThrowIfError(rli_client->BulkQuery(segment, &located));
  std::printf("analysis job: RLI located %zu/%zu frames of the segment\n",
              located.size(), segment.size());

  // Resolve one frame to concrete replicas and "pick" the best.
  std::vector<std::string> replicas;
  ThrowIfError(client->Query(FrameLfn(segment_begin), &replicas));
  std::printf("frame %s has %zu replicas; first: %s\n",
              FrameLfn(segment_begin).c_str(), replicas.size(), replicas[0].c_str());

  // --- Robustness: Bloom RLIs can answer false positives (~1%). A LIGO
  // client must recover by treating the LRC as authoritative (§3.2).
  uint64_t rli_claims = 0, lrc_confirms = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    const std::string bogus = FrameLfn(10000000 + i);  // never published
    std::vector<std::string> owners;
    if (rli_client->Query(bogus, &owners).ok()) {
      ++rli_claims;
      std::vector<std::string> check;
      if (client->Query(bogus, &check).ok()) ++lrc_confirms;
    }
  }
  std::printf("false-positive probe: RLI claimed %llu/2000 unpublished frames "
              "(expect ~1%%); LRC confirmed %llu (must be 0)\n",
              static_cast<unsigned long long>(rli_claims),
              static_cast<unsigned long long>(lrc_confirms));

  // Wildcard search is an LRC capability (impossible at a Bloom RLI).
  std::vector<rls::Mapping> wild;
  ThrowIfError(client->WildcardQuery("lfn://ligo.org/frames/H-R-70004*", 0, &wild));
  std::printf("LRC wildcard over a GPS prefix matched %zu mappings\n", wild.size());
  std::vector<rls::Mapping> rli_wild;
  auto status = rli_client->WildcardQuery("lfn://ligo.org/*", 0, &rli_wild);
  std::printf("RLI wildcard correctly rejected: %s\n", status.ToString().c_str());

  lrc.Stop();
  rli.Stop();
  std::printf("ligo_catalog complete\n");
  return 0;
}
