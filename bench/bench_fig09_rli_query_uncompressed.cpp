// Figure 9: RLI full-LFN query rates with a relational (MySQL) back end
// populated by a full, uncompressed soft-state update; multiple clients
// with 3 threads per client.
//
// Expected shape (paper): ~3000 queries/s, roughly flat in the number of
// clients (the relational back end is the bottleneck, not connections).
#include "bench/harness.h"

#include "common/rng.h"

int main() {
  rlsbench::Banner(
      "Figure 9 — RLI query rates, uncompressed updates, 1M mappings",
      "Chervenak et al., HPDC 2004, Fig. 9",
      "RLI populated via an actual uncompressed soft-state update");

  rlsbench::Testbed bed;
  bed.StartRli("rli:fig9");
  rls::UpdateConfig update;
  update.mode = rls::UpdateMode::kFull;
  update.targets.push_back(rls::UpdateTarget{"rli:fig9"});
  rls::RlsServer* lrc = bed.StartLrc("lrc:fig9", rdb::BackendProfile::MySQL(), update);

  const uint64_t entries = rlsbench::Scaled(1000000);
  std::printf("preloading %llu entries (paper: 1M) and sending the full update...\n",
              static_cast<unsigned long long>(entries));
  bed.Preload(lrc, entries);
  rlscommon::Stopwatch load_watch;
  if (!lrc->update_manager()->ForceFullUpdate().ok()) std::abort();
  std::printf("uncompressed update took %.1f s (that cost is Fig. 12's subject)\n",
              load_watch.ElapsedSeconds());
  rlscommon::NameGenerator gen("bench");

  rlsbench::Table table({"clients", "queries/s (3 threads per client)"});
  const int client_counts[] = {1, 2, 4, 6, 8, 10};
  for (int clients : client_counts) {
    const int workers = clients * 3;
    rlscommon::TrialStats stats;
    for (int t = 0; t < rlsbench::Trials(); ++t) {
      stats.AddRate(rlsbench::RunRliLoad(
          bed.network(), "rli:fig9", clients, 3,
          std::max<uint64_t>(1, 20000 / workers),
          [&](rls::RliClient& client, uint64_t w, uint64_t i) {
            rlscommon::Xoshiro256 rng(w * 7919 + i);
            std::vector<std::string> lrcs;
            (void)client.Query(gen.LogicalName(rng.Below(entries)), &lrcs);
          }));
    }
    table.AddRow({std::to_string(clients), rlscommon::FormatDouble(stats.MeanRate(), 0)});
  }
  table.Print();
  std::printf("\nShape check: roughly flat across client counts; compare the much\n"
              "higher Bloom-store rates in Fig. 10.\n");
  return 0;
}
