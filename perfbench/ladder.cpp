#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "bloom/bloom_filter.h"
#include "catalog.h"
#include "common/logging.h"
#include "common/rng.h"
#include "loadgen.h"
#include "obs/span_recorder.h"
#include "obs/trace.h"
#include "sql/engine.h"

namespace perfbench {
namespace {

using rlscommon::Status;

constexpr std::size_t kKeys = 1 << 15;
constexpr int kThreads = 4;

struct StepResult {
  double ops_per_s = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> per_thread;
};

/// Runs `body(thread, i)` on `threads` threads, each for `seconds` or,
/// when `exact` is given, for exactly exact[thread] calls. Records one
/// span per step (the benchmark's own span around the layer calls).
StepResult Step(const std::string& name, int threads, double seconds,
                const std::function<bool(int, uint64_t)>& body,
                const std::vector<uint64_t>& exact = {}) {
  StepResult result;
  result.per_thread.assign(threads, 0);
  std::vector<uint64_t> failed(threads, 0);
  std::vector<int64_t> begins(threads, 0), ends(threads, 0);
  std::barrier gate(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      gate.arrive_and_wait();
      begins[t] = NowNs();
      const int64_t stop = begins[t] + static_cast<int64_t>(seconds * 1e9);
      uint64_t i = 0;
      if (!exact.empty()) {
        for (; i < exact[t]; ++i) {
          if (!body(t, i)) ++failed[t];
        }
      } else {
        do {
          for (int k = 0; k < 16; ++k, ++i) {
            if (!body(t, i)) ++failed[t];
          }
        } while (NowNs() < stop);
      }
      result.per_thread[t] = i;
      ends[t] = NowNs();
    });
  }
  for (auto& worker : workers) worker.join();
  const int64_t begin = *std::min_element(begins.begin(), begins.end());
  const int64_t end = *std::max_element(ends.begin(), ends.end());
  for (int t = 0; t < threads; ++t) {
    result.ops += result.per_thread[t];
    result.failed += failed[t];
  }
  result.ops_per_s = end > begin ? result.ops * 1e9 / static_cast<double>(end - begin) : 0;

  obs::CompletedSpan span;
  span.component = "bench";
  span.name = name + (threads > 1 ? ".t4" : ".t1");
  span.trace_id = obs::NewTraceId();
  span.span_id = span.trace_id;
  span.tid = rlscommon::DenseThreadId();
  span.start_us = begin / 1000;
  span.duration_us = static_cast<uint64_t>((end - begin) / 1000);
  obs::SpanRecorder::Global().Record(std::move(span));
  return result;
}

/// Fresh ladder name index, disjoint per (step, thread).
uint64_t FreshKey(uint64_t step, int thread, uint64_t i) {
  return (step << 40) + (static_cast<uint64_t>(thread) << 32) + i;
}

}  // namespace

LadderTally RunLadder(const LadderContext& c, MetricSet* m) {
  LadderTally tally;
  auto count = [&tally](const StepResult& r) {
    tally.attempted += r.ops;
    tally.failed += r.failed;
  };
  const double sec = c.step_seconds;

  // One seeded stream of registered names; thread t starts a quarter of
  // the stream further on.
  rlscommon::Xoshiro256 rng(c.seed ^ 0x1add3e5ULL);
  std::vector<std::string> lfns(kKeys), pfns(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const uint64_t k = rng.Below(c.catalog);
    lfns[i] = Lfn(c.corpus, k);
    pfns[i] = Pfn(c.corpus, k, 0);
  }
  auto key = [](int t, uint64_t i) {
    return (static_cast<uint64_t>(t) * (kKeys / kThreads) + i) % kKeys;
  };
  auto scale = [&](const char* name, const StepResult& one, const StepResult& four) {
    m->Set(std::string(name) + "_scaling", four.ops_per_s / one.ops_per_s, "x");
  };

  // --- sql::Engine: the lookup statement, parsed and run per call ---
  rdb::Database* db = c.env->Find(c.dsn);
  std::vector<std::unique_ptr<sql::Engine>> engines;
  std::vector<sql::Session> sessions(kThreads);
  for (int t = 0; t < kThreads; ++t) engines.push_back(std::make_unique<sql::Engine>(db));
  auto sql_join = [&](int t, uint64_t i) {
    const uint64_t k = key(t, i);
    sql::ResultSet rs;
    const Status s = engines[t]->ExecuteSql(kPointJoinSql, {rdb::Value::String(lfns[k])},
                                            &sessions[t], &rs);
    return s.ok() && rs.size() == 1 && rs.at(0, 0).AsString() == pfns[k];
  };
  const StepResult sql1 = Step("ladder.sql.point_join", 1, sec, sql_join);
  const StepResult sql4 = Step("ladder.sql.point_join", kThreads, sec, sql_join);
  count(sql1);
  count(sql4);
  m->Set("sql.point_join_ns", 1e9 / sql1.ops_per_s, "ns");
  scale("sql.point_join", sql1, sql4);

  // --- dbapi::Connection: same statement through the prepared cache ---
  std::vector<std::unique_ptr<dbapi::Connection>> conns(kThreads);
  for (auto& conn : conns) {
    if (!dbapi::Connection::Open(*c.env, c.dsn, &conn).ok()) ++tally.failed;
  }
  auto dbapi_query = [&](int t, uint64_t i) {
    const uint64_t k = key(t, i);
    sql::ResultSet rs;
    const Status s = conns[t]->Execute(kPointJoinSql, {rdb::Value::String(lfns[k])}, &rs);
    return s.ok() && rs.size() == 1 && rs.at(0, 0).AsString() == pfns[k];
  };
  const StepResult db1 = Step("ladder.dbapi.query", 1, sec, dbapi_query);
  const StepResult db4 = Step("ladder.dbapi.query", kThreads, sec, dbapi_query);
  count(db1);
  count(db4);
  m->Set("dbapi.query_ns", 1e9 / db1.ops_per_s, "ns");
  scale("dbapi.query", db1, db4);

  // --- dbapi::ConnectionPool: lease wait when 4 threads look up ---
  std::vector<int64_t> wait_ns(kThreads, 0);
  auto pooled = [&](int t, uint64_t i) {
    const uint64_t k = key(t, i);
    const int64_t t0 = NowNs();
    dbapi::ConnectionPool::Lease lease;
    if (!c.store->pool().Acquire(&lease).ok()) return false;
    wait_ns[t] += NowNs() - t0;
    sql::ResultSet rs;
    return lease->Execute(kPointJoinSql, {rdb::Value::String(lfns[k])}, &rs).ok() &&
           rs.size() == 1;
  };
  const StepResult pool4 = Step("ladder.dbapi.pool", kThreads, sec, pooled);
  count(pool4);
  int64_t wait_total = 0;
  for (int64_t w : wait_ns) wait_total += w;
  m->Set("dbapi.pool_wait_us", wait_total / 1e3 / static_cast<double>(pool4.ops), "us");

  // --- LrcStore reads ---
  auto store_query = [&](int t, uint64_t i) {
    const uint64_t k = key(t, i);
    std::vector<std::string> targets;
    const Status s = c.store->QueryLogical(lfns[k], &targets);
    return s.ok() && targets.size() == 1 && targets[0] == pfns[k];
  };
  const StepResult q1 = Step("ladder.lrc_store.query", 1, sec, store_query);
  const StepResult q4 = Step("ladder.lrc_store.query", kThreads, sec, store_query);
  count(q1);
  count(q4);
  m->Set("rls.lrc_store.query_ns", 1e9 / q1.ops_per_s, "ns");
  scale("rls.lrc_store.query", q1, q4);

  // --- LrcStore writes on fresh names, deleted again afterwards ---
  auto creator = [&c](rls::LrcStore* store, uint64_t step) {
    return [&c, store, step](int t, uint64_t i) {
      const uint64_t k = FreshKey(step, t, i);
      return store->CreateMapping(Lfn(c.fresh_corpus, k), Pfn(c.fresh_corpus, k, 0)).ok();
    };
  };
  auto deleter = [&c](rls::LrcStore* store, uint64_t step) {
    return [&c, store, step](int t, uint64_t i) {
      const uint64_t k = FreshKey(step, t, i);
      return store->DeleteMapping(Lfn(c.fresh_corpus, k), Pfn(c.fresh_corpus, k, 0)).ok();
    };
  };
  const StepResult create1 = Step("ladder.lrc_store.create", 1, sec, creator(c.store, 1));
  const StepResult delete1 =
      Step("ladder.lrc_store.delete", 1, sec, deleter(c.store, 1), create1.per_thread);
  const StepResult create4 = Step("ladder.lrc_store.create", kThreads, sec, creator(c.store, 2));
  const StepResult delete4 =
      Step("ladder.lrc_store.delete", kThreads, sec, deleter(c.store, 2), create4.per_thread);
  count(create1);
  count(delete1);
  count(create4);
  count(delete4);
  m->Set("rls.lrc_store.create_ns", 1e9 / create1.ops_per_s, "ns");
  m->Set("rls.lrc_store.delete_ns", 1e9 / delete1.ops_per_s, "ns");
  scale("rls.lrc_store.create", create1, create4);

  // --- LrcStore writes over a durable log: framed, group commit, a real
  // fdatasync per batch, modeled penalty 0 ---
  {
    rdb::BackendProfile profile = rdb::BackendProfile::MySQL();
    profile.durable_flush = true;
    profile.durable_flush_penalty = std::chrono::microseconds(0);
    profile.wal_recovery = true;
    profile.wal_group_commit = true;
    const std::string dsn = "mysql://ladder_durable";
    std::unique_ptr<rls::LrcStore> durable;
    Status s = c.env->CreateDatabaseWithProfile(dsn, profile,
                                                c.wal_dir + "/ladder_durable.wal");
    if (s.ok()) s = rls::LrcStore::Create(*c.env, dsn, &durable);
    if (!s.ok()) {
      ++tally.failed;
    } else {
      rdb::Wal& wal = durable->database()->wal();
      std::atomic<uint64_t> wait_us{0}, waits{0};
      rdb::WalObserver observer;
      observer.sync_wait = [&wait_us, &waits](uint64_t us, uint64_t) {
        wait_us.fetch_add(us, std::memory_order_relaxed);
        waits.fetch_add(1, std::memory_order_relaxed);
      };
      wal.SetObserver(observer);
      const StepResult d1 =
          Step("ladder.lrc_store.durable_create", 1, sec, creator(durable.get(), 4));
      count(d1);
      count(Step("ladder.lrc_store.durable_delete", 1, sec, deleter(durable.get(), 4),
                 d1.per_thread));
      const uint64_t commits = wal.commits(), syncs = wal.syncs(), bytes = wal.bytes_logged();
      wait_us = 0;
      waits = 0;
      const StepResult d4 =
          Step("ladder.lrc_store.durable_create", kThreads, sec, creator(durable.get(), 5));
      count(d4);
      const double commits_per_sync =
          static_cast<double>(wal.commits() - commits) /
          static_cast<double>(std::max<uint64_t>(wal.syncs() - syncs, 1));
      const double bytes_per_write =
          static_cast<double>(wal.bytes_logged() - bytes) / static_cast<double>(d4.ops);
      const double sync_wait_us =
          static_cast<double>(wait_us.load()) / static_cast<double>(std::max<uint64_t>(waits, 1));
      count(Step("ladder.lrc_store.durable_delete", kThreads, sec, deleter(durable.get(), 5),
                 d4.per_thread));
      wal.SetObserver({});
      m->Set("rls.lrc_store.durable_create_ns", 1e9 / d1.ops_per_s, "ns");
      scale("rls.lrc_store.durable_create", d1, d4);
      m->Set("rdb.wal.commits_per_sync", commits_per_sync, "commits");
      m->Set("rdb.wal.sync_wait_us", sync_wait_us, "us");
      m->Set("rdb.wal.bytes_per_write", bytes_per_write, "bytes");
      if (durable->LogicalNameCount() != 0) ++tally.failed;
      durable.reset();
      if (!c.env->DropDatabase(dsn).ok()) ++tally.failed;
    }
  }

  // --- sql::Engine writes: single-row statements inside one transaction ---
  {
    sql::Engine engine(db);
    sql::Session session;
    sql::ResultSet rs;
    auto exec = [&](std::string_view text, std::vector<rdb::Value> params) {
      return engine.ExecuteSql(text, params, &session, &rs);
    };
    bool ok = exec("BEGIN", {}).ok();
    const StepResult insert = Step("ladder.sql.insert", 1, sec, [&](int, uint64_t i) {
      return exec("INSERT INTO t_lfn (name, ref) VALUES (?, 1)",
                  {rdb::Value::String(Lfn(c.fresh_corpus, FreshKey(3, 0, i)))})
          .ok();
    });
    ok = exec("COMMIT", {}).ok() && exec("BEGIN", {}).ok() && ok;
    const StepResult erase = Step(
        "ladder.sql.delete", 1, sec,
        [&](int, uint64_t i) {
          return exec("DELETE FROM t_lfn WHERE name = ?",
                      {rdb::Value::String(Lfn(c.fresh_corpus, FreshKey(3, 0, i)))})
                     .ok() &&
                 rs.affected == 1;
        },
        insert.per_thread);
    ok = exec("COMMIT", {}).ok() && ok;
    if (!ok) ++tally.failed;
    count(insert);
    count(erase);
    m->Set("sql.insert_ns", 1e9 / insert.ops_per_s, "ns");
    m->Set("sql.delete_ns", 1e9 / erase.ops_per_s, "ns");
  }

  // --- RliBloomStore: probe every resident filter ---
  auto rli_query = [&](int t, uint64_t i) {
    std::vector<std::string> lrcs;
    const Status s = c.rli->Query(c.rli_probes[key(t, i) % c.rli_probes.size()], &lrcs);
    return s.ok() || s.code() == rlscommon::ErrorCode::kNotFound;
  };
  const StepResult rli1 = Step("ladder.rli_bloom.query", 1, sec, rli_query);
  const StepResult rli4 = Step("ladder.rli_bloom.query", kThreads, sec, rli_query);
  count(rli1);
  count(rli4);
  m->Set("rls.rli_bloom.query_ns", 1e9 / rli1.ops_per_s, "ns");
  scale("rls.rli_bloom.query", rli1, rli4);

  // --- BloomFilter: one 100k-name filter at the paper's 10 bits/entry ---
  constexpr uint64_t kFilterNames = 100000;
  bloom::BloomFilter filter = bloom::BloomFilter::ForEntries(kFilterNames);
  for (uint64_t i = 0; i < kFilterNames; ++i) filter.Insert(Lfn("ladder-bloom", i));
  std::vector<std::string> probes(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    probes[i] = i % 2 == 0 ? Lfn("ladder-bloom", rng.Below(kFilterNames))
                           : Lfn("ladder-absent", i);
  }
  uint64_t false_positives = 0;
  for (std::size_t i = 1; i < kKeys; i += 2) false_positives += filter.Contains(probes[i]);
  const StepResult contains = Step("ladder.bloom.contains", 1, sec, [&](int t, uint64_t i) {
    const uint64_t k = key(t, i);
    return filter.Contains(probes[k]) || k % 2 == 1;  // no false negatives
  });
  count(contains);
  m->Set("bloom.contains_ns", 1e9 / contains.ops_per_s, "ns");
  m->Set("bloom.fp_rate", false_positives / static_cast<double>(kKeys / 2), "fraction");
  return tally;
}

}  // namespace perfbench
