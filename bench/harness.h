// Shared benchmark harness.
//
// Reproduces the paper's methodology (§4): N operations per trial,
// several trials, mean rate reported; multi-threaded clients; database
// size held constant across trials (added mappings are deleted again).
//
// Scaling: catalog sizes are multiplied by RLS_BENCH_SCALE (default 0.1,
// so the paper's "1 million entries" becomes 100k) to keep every binary
// under ~1 minute. Thread and client counts are NEVER scaled. Trials
// default to 3 (paper: 5); override with RLS_BENCH_TRIALS.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/workload.h"
#include "dbapi/dbapi.h"
#include "rls/client.h"
#include "rls/rls_server.h"

namespace rlsbench {

/// RLS_BENCH_SCALE (default 0.1).
double Scale();

/// RLS_BENCH_TRIALS (default 3).
int Trials();

/// paper_count × Scale(), at least `floor`.
uint64_t Scaled(uint64_t paper_count, uint64_t floor = 100);

/// Modeled per-commit disk penalty for "flush enabled" runs, from
/// RLS_FLUSH_PENALTY_US (default 8000 — a 2004-era disk).
std::chrono::microseconds FlushPenalty();

/// Prints the standard bench banner (what the bench reproduces, scale).
void Banner(const std::string& experiment, const std::string& paper_ref,
            const std::string& notes);

/// Minimal aligned table printer for paper-style output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One "testbed": transport + database environment + servers.
///
/// The transport comes from RLS_TRANSPORT ("inproc" default,
/// "tcp://127.0.0.1" for a real socket stack), so every bench produces
/// its curve on either fabric from the same binary.
///
/// When RLS_BENCH_JSON names a file, the destructor appends one JSON
/// line per server — RlsServer::RenderStatsJson, the line the JSONL
/// exporter writes — so server-side metrics land next to the client-side
/// rates with zero changes to individual benches.
class Testbed {
 public:
  Testbed();
  ~Testbed();

  net::Transport* network() { return network_.get(); }
  dbapi::Environment* env() { return &env_; }

  /// Starts an LRC server. `profile` selects the back-end behaviour
  /// (the paper's MySQL/PostgreSQL choice); WAL is file-backed under
  /// /tmp so durable flushes hit a real file. `limits` enables overload
  /// protection (default: disabled, the paper's unprotected server).
  rls::RlsServer* StartLrc(const std::string& address,
                           rdb::BackendProfile profile = rdb::BackendProfile::MySQL(),
                           rls::UpdateConfig update = {},
                           rls::ServerLimits limits = {});

  /// Starts an RLI server. Empty `dsn_profile` = Bloom-only (no DB).
  rls::RlsServer* StartRli(const std::string& address, bool with_database = true,
                           std::chrono::seconds timeout = std::chrono::seconds(0));

  /// Preloads `count` mappings into an LRC through the bulk-load path.
  void Preload(rls::RlsServer* lrc, uint64_t count,
               const std::string& corpus = "bench");

 private:
  void WriteServerSnapshots();

  std::unique_ptr<net::Transport> network_;
  dbapi::Environment env_;
  std::vector<std::unique_ptr<rls::RlsServer>> servers_;
  int next_db_ = 0;
};

/// Multithreaded load driver: `clients` clients × `threads_per_client`
/// threads; every worker opens its own connection (like the paper's
/// multi-threaded C client) and executes `ops_per_worker` operations.
/// Returns aggregate operations/second (workers start on a barrier).
///
/// `op(client, worker_index, op_index)` performs one operation; it must
/// not throw.
/// `link` defaults to the paper's 100 Mbit/s LAN: every call pays the
/// LAN round trip, so rates climb with the thread count until the server
/// saturates (the shape of Figs. 4-7 and 9-11).
double RunLrcLoad(net::Transport* network, const std::string& address, int clients,
                  int threads_per_client, uint64_t ops_per_worker,
                  const std::function<void(rls::LrcClient&, uint64_t, uint64_t)>& op,
                  net::LinkModel link = net::LinkModel::Lan100Mbit());

/// Same driver against the RLI role.
double RunRliLoad(net::Transport* network, const std::string& address, int clients,
                  int threads_per_client, uint64_t ops_per_worker,
                  const std::function<void(rls::RliClient&, uint64_t, uint64_t)>& op,
                  net::LinkModel link = net::LinkModel::Lan100Mbit());

}  // namespace rlsbench
