// Per-layer cost ladder of the RLS performance benchmark.
//
// Times one seeded stream of catalog lookups (and fresh-name writes)
// through each layer's public interface in turn — sql::Engine,
// dbapi::Connection, LrcStore, RliBloomStore and bloom::BloomFilter — at
// 1 and 4 threads, on the workload's own databases and stores while no
// client load runs. The 4-thread / 1-thread throughput ratio of each
// layer shows where concurrent work serializes. One extra step times
// LrcStore writes over a durable log (framed, group commit, a real
// fdatasync per batch): on a shared virtual disk its latency spreads too
// far between runs to gate end to end, so it is a per-layer number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dbapi/dbapi.h"
#include "report.h"
#include "rls/lrc_store.h"
#include "rls/rli_store.h"

namespace perfbench {

struct LadderContext {
  rls::LrcStore* store = nullptr;
  dbapi::Environment* env = nullptr;
  std::string dsn;                  // the LRC database
  rls::RliBloomStore* rli = nullptr;
  std::string corpus;               // registered names: Lfn(corpus, i), i < catalog
  uint64_t catalog = 0;
  std::string fresh_corpus;         // names the ladder may create and delete
  std::vector<std::string> rli_probes;  // RLI query names in the workload's mix
  std::string wal_dir;              // where the durable-WAL step keeps its log
  uint64_t seed = 1;
  double step_seconds = 0.2;        // length of one timed step
};

struct LadderTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // wrong answers or failed calls
};

/// Runs every step and sets the sql.*, dbapi.*, rls.lrc_store.*,
/// rls.rli_bloom.*, rdb.wal.* and bloom.* metrics. Leaves the catalog as
/// it found it.
LadderTally RunLadder(const LadderContext& context, MetricSet* metrics);

}  // namespace perfbench
