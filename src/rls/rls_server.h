// The common LRC/RLI server (paper §3.1: "our implementation consists of
// a common server that can be configured as an LRC, an RLI or both").
//
// The server owns:
//   * an LrcStore (LRC role) over the configured DSN, plus an
//     UpdateManager sending soft-state updates to its RLIs;
//   * an RliRelationalStore (RLI role, uncompressed updates) and/or an
//     RliBloomStore (RLI role, compressed updates) plus an expire thread
//     discarding soft state once it is `timeout` old (§3.2); the thread
//     wakes on the injected clock when the oldest stamp comes due;
//   * a gsi::AuthManager enforcing per-operation ACLs (§3.1);
//   * optional parent RLIs for hierarchical RLI->RLI forwarding (the
//     "hierarchy of RLI servers" of §7, Ongoing Work).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "dbapi/dbapi.h"
#include "gsi/gsi.h"
#include "net/rpc.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "rls/admission.h"
#include "rls/lrc_store.h"
#include "rls/protocol.h"
#include "rls/rli_store.h"
#include "rls/update_manager.h"

namespace rls {

struct RliRoleConfig {
  bool enabled = false;
  /// DSN of the relational store for uncompressed updates. Empty =
  /// Bloom-only RLI (no database — paper §3.4).
  std::string dsn;
  /// Accept Bloom updates into the in-memory store.
  bool accept_bloom = true;
  /// Soft state this old is discarded (0 = never expires).
  std::chrono::seconds timeout{0};
  /// Parent RLIs to forward received updates to (hierarchical mode).
  std::vector<UpdateTarget> parents;
};

struct LrcRoleConfig {
  bool enabled = false;
  std::string dsn;
  UpdateConfig update;
  // The wal_* fields are EnsureDatabases' input: it builds the LRC
  // database's BackendProfile from them. The server itself reads the
  // WAL settings from the database it is given.
  /// Persistent, replayed WAL for the LRC database: checkpoint-at-wrap
  /// and open-time replay (config key `wal_recovery`). Off = a scratch
  /// log that is unlinked on close.
  bool wal_recovery = false;
  /// WAL group commit (config key `wal_group_commit`): concurrent
  /// committers share one fdatasync + one modeled-disk penalty per
  /// batch instead of paying one each. Orthogonal to wal_recovery.
  bool wal_group_commit = false;
  /// Batch-size cap for group commit; 0 = engine default (64).
  std::size_t wal_group_max_commits = 0;
  /// Leader linger for the batch to fill (config key
  /// `wal_group_max_wait_us`); 0 = sync as soon as the leader drains.
  std::chrono::microseconds wal_group_max_wait{0};
};

struct ObsConfig {
  /// JSONL metrics export target; empty = exporter disabled.
  std::string export_path;
  std::chrono::milliseconds export_period{1000};
  /// Spans slower than this log at WARN with hop timing (0 = disabled).
  /// Process-wide setting, applied at Start().
  std::chrono::microseconds slow_span_threshold{0};
  /// Capacity of the process-wide span recorder ring (flight recorder).
  /// 0 = leave the recorder in its current state (off by default).
  /// Process-wide setting, applied at Start().
  std::size_t trace_capacity = 0;
};

struct RlsServerConfig {
  std::string address;        // transport listen address
  std::string url;            // identity in soft-state updates; default address
  LrcRoleConfig lrc;
  RliRoleConfig rli;
  ObsConfig obs;
  gsi::AuthManager auth = gsi::AuthManager::Open();

  /// Overload protection (admission, rate limits, bounded queues).
  /// Default-constructed = disabled, the pre-overload behavior.
  ServerLimits limits;
};

class RlsServer {
 public:
  RlsServer(net::Transport* network, RlsServerConfig config,
            dbapi::Environment* env = &dbapi::Environment::Global(),
            rlscommon::Clock* clock = rlscommon::SystemClock::Instance());
  ~RlsServer();

  RlsServer(const RlsServer&) = delete;
  RlsServer& operator=(const RlsServer&) = delete;

  /// Creates stores (the DSNs must already be registered in the
  /// environment), starts the RPC server and background threads.
  rlscommon::Status Start();
  void Stop();

  const std::string& url() const { return config_.url; }
  const std::string& address() const { return config_.address; }

  /// Direct access for tests, benches and the update machinery.
  LrcStore* lrc_store() { return lrc_store_.get(); }
  RliRelationalStore* rli_relational() { return rli_relational_.get(); }
  RliBloomStore* rli_bloom() { return rli_bloom_.get(); }
  UpdateManager* update_manager() { return update_manager_.get(); }

  /// Full introspection snapshot (what kServerGetStats serves).
  GetStatsResponse GetStatsSnapshot() const;

  /// The registry as one JSON line {"server", "role", "metrics"}: what
  /// the JSONL exporter and the bench harness write.
  std::string RenderStatsJson() const;

  /// The server's metrics registry: the one place its counts live.
  obs::Registry* metrics_registry() { return &registry_; }

  /// Role string for introspection ("lrc", "rli", "lrc+rli").
  std::string role() const;

  /// Runs one expiration round now: drops every entry whose stamp is
  /// `timeout` old. Returns when the oldest remaining entry comes due
  /// (TimePoint::max() without a timeout); the expire thread sleeps
  /// until then.
  rlscommon::TimePoint ExpireNow();

 private:
  /// Looks the opcode up in kOpTable, checks the role and the ACL, then
  /// runs the row's Serve<Op>.
  rlscommon::Status Dispatch(const gsi::AuthContext& auth, uint16_t opcode,
                             const std::string& request, std::string* response);

  /// The adapter of one operation: decodes RequestOf<Code>, runs
  /// Handle<Code> and encodes the reply on OK.
  template <Op Code>
  rlscommon::Status Serve(const std::string& request, std::string* response);

  /// The handler of one operation. Every row of the operation table has
  /// exactly one (rls_server.cpp); a row without one fails the build.
  template <Op Code>
  rlscommon::Status Handle(const RequestOf<Code>& request, ReplyOf<Code>* reply) = delete;

  /// Counts a received soft-state update (`count`), records its
  /// send-to-receive lag and remembers its trace.
  void NoteUpdate(bool count, int64_t sent_micros = 0, int64_t received_micros = 0);
  /// Sends a soft-state update this RLI stored on to its parent RLIs.
  template <Op Code>
  void ForwardToParents(const RequestOf<Code>& request);
  void ExpireLoop();
  /// Registers the registry's callback gauges and installs the WAL
  /// observer; UnregisterGauges undoes both.
  void RegisterGauges();
  void UnregisterGauges();

  // Declared first so it outlives every component holding instrument
  // pointers into it (members destroy in reverse declaration order).
  obs::Registry registry_;

  net::Transport* network_;
  RlsServerConfig config_;
  dbapi::Environment* env_;
  rlscommon::Clock* clock_;

  std::unique_ptr<LrcStore> lrc_store_;
  std::unique_ptr<RliRelationalStore> rli_relational_;
  std::unique_ptr<RliBloomStore> rli_bloom_;
  std::unique_ptr<UpdateManager> update_manager_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<net::RpcServer> rpc_server_;

  std::unique_ptr<obs::JsonlExporter> exporter_;

  // Parent forwarding clients (hierarchical RLI).
  std::mutex parents_mu_;
  std::vector<std::pair<UpdateTarget, std::unique_ptr<net::RpcClient>>> parents_;

  // Registry instruments (owned by registry_).
  std::vector<std::string> gauges_;  // callback gauges RegisterGauges made
  obs::Counter* rli_updates_received_ = nullptr;
  obs::Counter* rli_expired_entries_ = nullptr;
  obs::Histogram* ss_receive_lag_ = nullptr;

  // Trace id of the last soft-state update this server received.
  std::atomic<uint64_t> last_update_trace_id_{0};
  rlscommon::TimePoint start_time_{};

  std::mutex expire_mu_;
  std::condition_variable expire_cv_;
  std::thread expire_thread_;
  bool running_ = false;
};

}  // namespace rls
