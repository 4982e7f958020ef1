// Micro-benchmarks (google-benchmark) for the primitives underneath the
// paper's numbers: Bloom filter ops, hashing, SQL engine ops, wire codec
// and wildcard matching.
#include <benchmark/benchmark.h>

#include "bloom/bloom_filter.h"
#include "common/strings.h"
#include "common/workload.h"
#include "net/serialize.h"
#include "rls/protocol.h"
#include "rls/rli_store.h"
#include "sql/engine.h"

namespace {

void BM_HashKey(benchmark::State& state) {
  const std::string name = "lfn://ligo.org/run-00042/lfn-0000001234";
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom::HashKey(name));
  }
}
BENCHMARK(BM_HashKey);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(1000000);
  rlscommon::NameGenerator gen("micro");
  uint64_t i = 0;
  for (auto _ : state) {
    filter.Insert(gen.LogicalName(i++ % 1000000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQueryHit(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(100000);
  rlscommon::NameGenerator gen("micro");
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(gen.LogicalName(i));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(gen.LogicalName(i++ % 100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQueryHit);

void BM_BloomQueryMiss(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(100000);
  rlscommon::NameGenerator gen("micro");
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(gen.LogicalName(i));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(gen.LogicalName(5000000 + i++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQueryMiss);

/// The RLI's query over N resident filters — the Fig. 10 mechanism, the
/// loop the server runs. Each filter summarizes 100k names (1 Mbit, the
/// perfbench geometry), so 100 of them (12.5 MB) outgrow the L2 cache.
/// A second argument of 1 gives the filters distinct sizes (50k to 149k
/// names), as LRCs that size their filters from their own catalogs do.
void BM_BloomMultiFilterProbe(benchmark::State& state) {
  const int filters = static_cast<int>(state.range(0));
  const bool distinct = state.range(1) != 0;
  rls::RliBloomStore store;
  for (int f = 0; f < filters; ++f) {
    const uint64_t count = distinct ? 50000 + 997 * static_cast<uint64_t>(f) : 100000;
    rlscommon::NameGenerator gen("micro" + std::to_string(f));
    bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(count);
    for (uint64_t i = 0; i < count; ++i) filter.Insert(gen.LogicalName(i));
    store.StoreFilter("rls://lrc" + std::to_string(f), std::move(filter));
  }
  // Names of the first filter's LRC, made before timing.
  rlscommon::NameGenerator gen("micro0");
  std::vector<std::string> names;
  for (uint64_t i = 0; i < 4096; ++i) names.push_back(gen.LogicalName(i * 12));
  std::vector<std::string> lrcs;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Query(names[i++ % names.size()], &lrcs));
    benchmark::DoNotOptimize(lrcs.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMultiFilterProbe)
    ->Args({1, 0})
    ->Args({10, 0})
    ->Args({100, 0})
    ->Args({100, 1});

void BM_SqlInsert(benchmark::State& state) {
  rdb::Database db("micro", rdb::BackendProfile::MySQL());
  sql::Engine engine(&db);
  sql::Session session;
  sql::ResultSet rs;
  (void)engine.ExecuteSql("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL)",
                    {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE UNIQUE INDEX idx ON t (name)", {}, &session, &rs);
  uint64_t i = 0;
  for (auto _ : state) {
    (void)engine.ExecuteSql("INSERT INTO t (name) VALUES (?)",
                      {rdb::Value::String("row" + std::to_string(i++))}, &session, &rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlInsert);

void BM_SqlPointSelect(benchmark::State& state) {
  rdb::Database db("micro", rdb::BackendProfile::MySQL());
  sql::Engine engine(&db);
  sql::Session session;
  sql::ResultSet rs;
  (void)engine.ExecuteSql("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL)",
                    {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE UNIQUE INDEX idx ON t (name)", {}, &session, &rs);
  for (uint64_t i = 0; i < 100000; ++i) {
    (void)engine.ExecuteSql("INSERT INTO t (name) VALUES (?)",
                      {rdb::Value::String("row" + std::to_string(i))}, &session, &rs);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (void)engine.ExecuteSql("SELECT id FROM t WHERE name = ?",
                      {rdb::Value::String("row" + std::to_string(i++ % 100000))},
                      &session, &rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlPointSelect);

void BM_SqlThreeWayJoin(benchmark::State& state) {
  rdb::Database db("micro", rdb::BackendProfile::MySQL());
  sql::Engine engine(&db);
  sql::Session session;
  sql::ResultSet rs;
  (void)engine.ExecuteSql("CREATE TABLE t_lfn (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL, ref INT)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE UNIQUE INDEX i1 ON t_lfn (name)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE TABLE t_pfn (id INT AUTO_INCREMENT PRIMARY KEY,"
                    " name VARCHAR(250) NOT NULL, ref INT)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE TABLE t_map (lfn_id INT, pfn_id INT)", {}, &session, &rs);
  (void)engine.ExecuteSql("CREATE INDEX i2 ON t_map (lfn_id)", {}, &session, &rs);
  for (uint64_t i = 0; i < 20000; ++i) {
    (void)engine.ExecuteSql("INSERT INTO t_lfn (name, ref) VALUES (?, 1)",
                      {rdb::Value::String("l" + std::to_string(i))}, &session, &rs);
    (void)engine.ExecuteSql("INSERT INTO t_pfn (name, ref) VALUES (?, 1)",
                      {rdb::Value::String("p" + std::to_string(i))}, &session, &rs);
    (void)engine.ExecuteSql("INSERT INTO t_map (lfn_id, pfn_id) VALUES (?, ?)",
                      {rdb::Value::Int(static_cast<int64_t>(i + 1)),
                       rdb::Value::Int(static_cast<int64_t>(i + 1))},
                      &session, &rs);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (void)engine.ExecuteSql(
        "SELECT t_pfn.name FROM t_lfn"
        " JOIN t_map ON t_lfn.id = t_map.lfn_id"
        " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
        " WHERE t_lfn.name = ?",
        {rdb::Value::String("l" + std::to_string(i++ % 20000))}, &session, &rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlThreeWayJoin);

void BM_WireEncodeMappingBatch(benchmark::State& state) {
  rlscommon::NameGenerator gen("micro");
  rls::MappingRequest request;
  for (uint64_t i = 0; i < 1000; ++i) {
    request.mappings.push_back(rls::Mapping{gen.LogicalName(i), gen.PhysicalName(i)});
  }
  for (auto _ : state) {
    std::string payload;
    request.Encode(&payload);
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WireEncodeMappingBatch);

void BM_WireDecodeMappingBatch(benchmark::State& state) {
  rlscommon::NameGenerator gen("micro");
  rls::MappingRequest request;
  for (uint64_t i = 0; i < 1000; ++i) {
    request.mappings.push_back(rls::Mapping{gen.LogicalName(i), gen.PhysicalName(i)});
  }
  std::string payload;
  request.Encode(&payload);
  for (auto _ : state) {
    rls::MappingRequest decoded;
    benchmark::DoNotOptimize(rls::MappingRequest::Decode(payload, &decoded));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WireDecodeMappingBatch);

void BM_WildcardMatch(benchmark::State& state) {
  const std::string pattern = "lfn://*/run-00?42/*";
  const std::string text = "lfn://ligo.org/run-00342/lfn-0000001234";
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlscommon::WildcardMatch(pattern, text));
  }
}
BENCHMARK(BM_WildcardMatch);

void BM_BloomSerialize(benchmark::State& state) {
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(1000000);
  rlscommon::NameGenerator gen("micro");
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(gen.LogicalName(i));
  for (auto _ : state) {
    std::string bytes;
    filter.Serialize(&bytes);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * filter.SerializedBytes()));
}
BENCHMARK(BM_BloomSerialize);

}  // namespace

BENCHMARK_MAIN();
