// Configuration-file bootstrap.
//
// The 2004 RLS server was configured through globus-rls-server.conf
// (lrc_server true, rli_server true, acl entries, update lists, ...).
// This module builds RlsServerConfig values from the same style of
// key/value file, and — because RLS 2.0.9 had no dynamic membership
// service — provides Topology, the "simple static configuration of LRCs
// and RLIs" (paper §3.6) that stands up a whole deployment from one file.
//
// Single-server keys:
//   address            rls://lrc.site.org        (required)
//   lrc_server         true|false
//   rli_server         true|false
//   lrc_dsn            mysql://lrc0              (required with lrc_server)
//   wal_recovery       true|false  (crash-safe LRC WAL: the log persists
//                      and replays at open; default false = scratch log
//                      unlinked on close)
//   rli_dsn            mysql://rli0              (empty = Bloom-only RLI)
//   rli_bloomfilter    true|false                (accept Bloom updates)
//   rli_timeout_s      N                         (soft-state timeout; an
//                      entry leaves the index once it is N s old)
//   rli_parent         rls://parent              (repeatable; RLI hierarchy)
//   update_mode        none|full|immediate|bloom|partitioned
//   update_rli         rls://rli [pattern ...]   (repeatable; patterns for
//                                                 partitioned mode)
//   update_full_interval_ms       N   (0 = manual)
//   update_immediate_interval_ms  N   (paper default 30000)
//   update_buffer_count           N   (pending changes before a flush)
//   update_chunk_size             N
//   update_bloom_expected_entries N
//   authentication     true|false
//   gridmap            "<dn regex>" localuser    (repeatable)
//   acl                <regex>: priv[,priv...]   (repeatable; privs:
//                      lrc_read lrc_write rli_read rli_write admin stats)
//   auth_handshake_us  N
//
// Topology files prefix every key with `server.<name>.`:
//   server.lrc0.address     rls://lrc0.site.org
//   server.lrc0.lrc_server  true
//   ...
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "rls/rls_server.h"

namespace rls {

/// Builds a server configuration from key/value configuration.
/// Does NOT create databases: call EnsureDatabases (or create them
/// yourself) before Start.
rlscommon::Status ConfigureServer(const rlscommon::Config& config,
                                  RlsServerConfig* out);

/// Builds the deployment's transport from the `transport` configuration
/// key ("inproc" or "tcp://host", see net::MakeTransport), falling back
/// to the RLS_TRANSPORT environment variable, then to inproc. Protocol
/// error on an unknown scheme.
rlscommon::Status MakeTransportFromConfig(const rlscommon::Config& config,
                                          std::unique_ptr<net::Transport>* out);

/// Registers every DSN the server configuration references (LRC and RLI)
/// in `env`, if not already present. `wal_dir` non-empty = file-backed
/// WALs under that directory.
rlscommon::Status EnsureDatabases(const RlsServerConfig& config,
                                  dbapi::Environment& env,
                                  const std::string& wal_dir = "");

/// A whole static deployment: the paper's stand-in for a membership
/// service. Owns every server it starts.
class Topology {
 public:
  /// Parses `server.<name>.<key>` entries, configures and starts every
  /// server (databases are created on demand). On failure, previously
  /// started servers are stopped.
  static rlscommon::Status Create(const rlscommon::Config& config,
                                  net::Transport* network, dbapi::Environment* env,
                                  std::unique_ptr<Topology>* out);

  ~Topology();

  /// Server by topology name ("lrc0"); nullptr if absent.
  RlsServer* Find(const std::string& name);

  std::vector<std::string> ServerNames() const;
  std::size_t size() const { return servers_.size(); }

  void StopAll();

 private:
  Topology() = default;
  std::map<std::string, std::unique_ptr<RlsServer>> servers_;
};

}  // namespace rls
