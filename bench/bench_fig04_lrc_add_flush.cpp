// Figure 4: Add rates for an LRC with MySQL back end, 1M entries, single
// client with 1..10 threads, database flush enabled vs disabled.
//
// Expected shape (paper): flush-disabled adds are ~an order of magnitude
// faster than flush-enabled (84/s vs >700/s on 2004 hardware); the
// flush-enabled curve is flat in the thread count because commits
// serialize on the synchronous log write.
//
// Third series (beyond the paper): the same durable workload against a
// server with WAL group commit enabled. Concurrent committers share one
// log append + one flush, so the durable curve SCALES with the thread
// count instead of flat-lining — the classic group-commit result the
// paper's 2004 MySQL setup lacked. The paper's two series run on a
// framed scratch log at a WAL batch cap of one (every durable commit
// pays its own sync and penalty) and run to completion FIRST (identical
// phases to the original bench) so their latency histograms stay
// comparable with the pinned baseline; the grouped server is only
// preloaded and exercised afterwards.
#include "bench/harness.h"

namespace {

using rlsbench::Table;

std::string TrialName(int trial, uint64_t w, uint64_t i) {
  return "fig4-t" + std::to_string(trial) + "-w" + std::to_string(w) + "-i" +
         std::to_string(i);
}

/// Timed add phase: `total_ops` distinct mappings split across workers.
double AddPhase(rlsbench::Testbed& bed, rls::RlsServer* lrc, int clients,
                int threads, uint64_t total_ops, int trial) {
  const uint64_t per_worker = std::max<uint64_t>(
      1, total_ops / (static_cast<uint64_t>(clients) * threads));
  return rlsbench::RunLrcLoad(
      bed.network(), lrc->address(), clients, threads, per_worker,
      [&](rls::LrcClient& client, uint64_t w, uint64_t i) {
        std::string name = TrialName(trial, w, i);
        (void)client.Create(name, "gsiftp://bench/" + name);
      });
}

/// Untimed cleanup: deletes the trial's mappings so the catalog size
/// stays constant (paper methodology §4). Run with flush disabled.
void DeletePhase(rlsbench::Testbed& bed, rls::RlsServer* lrc, int clients,
                 int threads, uint64_t total_ops, int trial) {
  const uint64_t per_worker = std::max<uint64_t>(
      1, total_ops / (static_cast<uint64_t>(clients) * threads));
  rlsbench::RunLrcLoad(bed.network(), lrc->address(), clients, threads,
                       per_worker,
                       [&](rls::LrcClient& client, uint64_t w, uint64_t i) {
                         std::string name = TrialName(trial, w, i);
                         (void)client.Delete(name, "gsiftp://bench/" + name);
                       });
}

}  // namespace

int main() {
  rlsbench::Banner(
      "Figure 4 — LRC add rates, MySQL back end, flush enabled vs disabled",
      "Chervenak et al., HPDC 2004, Fig. 4",
      "paper: ~84 adds/s flush-enabled vs >700/s flush-disabled (2004 disk)");

  rlsbench::Testbed bed;
  rdb::BackendProfile profile = rdb::BackendProfile::MySQL();
  profile.durable_flush_penalty = rlsbench::FlushPenalty();
  rls::RlsServer* lrc = bed.StartLrc("lrc:fig4", profile);
  const uint64_t entries = rlsbench::Scaled(1000000);
  std::printf("preloading %llu entries (paper: 1M)...\n",
              static_cast<unsigned long long>(entries));
  bed.Preload(lrc, entries);
  rdb::Database* db = bed.env()->Find(lrc->lrc_store()->pool().dsn());

  const int thread_counts[] = {1, 2, 4, 6, 8, 10};
  const int kThreadRows = static_cast<int>(std::size(thread_counts));

  // Phase 1: the paper's two series, exactly as the original bench.
  double disabled_rates[kThreadRows], enabled_rates[kThreadRows];
  double legacy_durable_at_8 = 0;
  for (int row = 0; row < kThreadRows; ++row) {
    const int threads = thread_counts[row];
    {
      rlscommon::TrialStats stats;
      db->SetDurableFlush(false);
      for (int t = 0; t < rlsbench::Trials(); ++t) {
        const int trial = threads * 100 + t;
        stats.AddRate(AddPhase(bed, lrc, 1, threads, 3000, trial));
        DeletePhase(bed, lrc, 1, threads, 3000, trial);
      }
      disabled_rates[row] = stats.MeanRate();
    }
    {
      // Fewer ops: each add pays a synchronous (modeled 2004) disk flush.
      const int trial = threads * 100 + 50;
      db->SetDurableFlush(true);
      enabled_rates[row] = AddPhase(bed, lrc, 1, threads, 250, trial);
      db->SetDurableFlush(false);
      DeletePhase(bed, lrc, 1, threads, 250, trial);
      if (threads == 8) legacy_durable_at_8 = enabled_rates[row];
    }
  }

  // Phase 2: same modeled disk, WAL group commit on — concurrent
  // durable commits batch into one append + one (penalized) flush.
  rdb::BackendProfile group_profile = profile;
  group_profile.wal_group_commit = true;
  rls::RlsServer* grouped = bed.StartLrc("lrc:fig4-group", group_profile);
  std::printf("preloading group-commit server...\n");
  bed.Preload(grouped, entries);
  rdb::Database* gdb = bed.env()->Find(grouped->lrc_store()->pool().dsn());

  double grouped_rates[kThreadRows];
  for (int row = 0; row < kThreadRows; ++row) {
    const int threads = thread_counts[row];
    // The shared flush affords more ops as the thread count climbs.
    const int trial = threads * 100 + 60;
    gdb->SetDurableFlush(true);
    grouped_rates[row] = AddPhase(bed, grouped, 1, threads, 250 * threads, trial);
    gdb->SetDurableFlush(false);
    DeletePhase(bed, grouped, 1, threads, 250 * threads, trial);
  }

  Table table({"threads", "adds/s (flush disabled)", "adds/s (flush enabled)",
               "adds/s (flush + group commit)"});
  for (int row = 0; row < kThreadRows; ++row) {
    table.AddRow({std::to_string(thread_counts[row]),
                  rlscommon::FormatDouble(disabled_rates[row], 0),
                  rlscommon::FormatDouble(enabled_rates[row], 0),
                  rlscommon::FormatDouble(grouped_rates[row], 0)});
  }
  table.Print();

  // Durability-ceiling acceptance: 8 clients x 10 threads of durable
  // adds against the grouped server. 80 committers share flushes, so
  // the rate must clear 10x the per-commit-flush (batch cap one) plateau.
  {
    const int trial = 9999;
    gdb->SetDurableFlush(true);
    const double group_rate = AddPhase(bed, grouped, 8, 10, 4000, trial);
    gdb->SetDurableFlush(false);
    DeletePhase(bed, grouped, 8, 10, 4000, trial);
    const double ratio =
        legacy_durable_at_8 > 0 ? group_rate / legacy_durable_at_8 : 0;
    std::printf("\nGroup-commit acceptance (8 clients x 10 threads, durable):\n"
                "  grouped: %.0f adds/s   legacy 8-thread plateau: %.0f adds/s "
                "  speedup: %.1fx %s\n",
                group_rate, legacy_durable_at_8, ratio,
                ratio >= 10.0 ? "(PASS, >= 10x)" : "(FAIL, < 10x)");
  }

  std::printf("\nShape check: flush-disabled should exceed flush-enabled by ~5-10x;\n"
              "the flush-enabled curve stays flat (commits serialize on the log)\n"
              "while the group-commit curve scales with the thread count.\n");
  return 0;
}
