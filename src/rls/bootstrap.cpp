#include "rls/bootstrap.h"

#include <cstdlib>

#include "common/strings.h"
#include "dbapi/dbapi.h"
#include "rdb/profile.h"

namespace rls {

using rlscommon::Config;
using rlscommon::Status;

namespace {

Status ParseUpdateMode(const std::string& text, UpdateMode* out) {
  if (text == "none") *out = UpdateMode::kNone;
  else if (text == "full") *out = UpdateMode::kFull;
  else if (text == "immediate") *out = UpdateMode::kImmediate;
  else if (text == "bloom") *out = UpdateMode::kBloom;
  else if (text == "partitioned") *out = UpdateMode::kPartitioned;
  else return Status::InvalidArgument("unknown update_mode '" + text + "'");
  return Status::Ok();
}

/// "rls://rli [pattern ...]" -> UpdateTarget.
UpdateTarget ParseTarget(const std::string& value) {
  UpdateTarget target;
  bool first = true;
  for (const std::string& field : rlscommon::Split(value, ' ')) {
    std::string token(rlscommon::Trim(field));
    if (token.empty()) continue;
    if (first) {
      target.address = token;
      first = false;
    } else {
      target.patterns.push_back(token);
    }
  }
  return target;
}

}  // namespace

Status MakeTransportFromConfig(const Config& config,
                               std::unique_ptr<net::Transport>* out) {
  std::string uri = config.GetString("transport", "");
  if (uri.empty()) {
    const char* env = std::getenv("RLS_TRANSPORT");
    if (env) uri = env;
  }
  std::unique_ptr<net::Transport> transport = net::MakeTransport(uri);
  if (!transport) {
    return Status::Protocol("unknown transport scheme: " + uri);
  }
  *out = std::move(transport);
  return Status::Ok();
}

Status ConfigureServer(const Config& config, RlsServerConfig* out) {
  *out = RlsServerConfig{};
  auto address = config.Get("address");
  if (!address) return Status::InvalidArgument("server config needs 'address'");
  out->address = *address;
  out->url = config.GetString("url", *address);

  out->lrc.enabled = config.GetBool("lrc_server", false);
  out->rli.enabled = config.GetBool("rli_server", false);
  if (!out->lrc.enabled && !out->rli.enabled) {
    return Status::InvalidArgument("server " + out->address +
                                   ": enable lrc_server and/or rli_server");
  }

  if (out->lrc.enabled) {
    out->lrc.dsn = config.GetString("lrc_dsn", "");
    if (out->lrc.dsn.empty()) {
      return Status::InvalidArgument("lrc_server needs lrc_dsn");
    }
    out->lrc.wal_recovery = config.GetBool("wal_recovery", false);
    out->lrc.wal_group_commit = config.GetBool("wal_group_commit", false);
    out->lrc.wal_group_max_commits =
        static_cast<std::size_t>(config.GetInt("wal_group_max_commits", 0));
    out->lrc.wal_group_max_wait =
        std::chrono::microseconds(config.GetInt("wal_group_max_wait_us", 0));
    UpdateConfig& update = out->lrc.update;
    Status s = ParseUpdateMode(config.GetString("update_mode", "none"), &update.mode);
    if (!s.ok()) return s;
    for (const std::string& value : config.GetAll("update_rli")) {
      update.targets.push_back(ParseTarget(value));
    }
    if (update.mode != UpdateMode::kNone && update.targets.empty()) {
      return Status::InvalidArgument("update_mode set but no update_rli entries");
    }
    update.full_interval =
        std::chrono::milliseconds(config.GetInt("update_full_interval_ms", 0));
    update.immediate_interval = std::chrono::milliseconds(
        config.GetInt("update_immediate_interval_ms", 30000));
    update.immediate_max_pending =
        static_cast<std::size_t>(config.GetInt("update_buffer_count", 100));
    update.chunk_size = static_cast<std::size_t>(config.GetInt("update_chunk_size", 10000));
    update.bloom_expected_entries =
        static_cast<uint64_t>(config.GetInt("update_bloom_expected_entries", 0));
  }

  if (out->rli.enabled) {
    out->rli.dsn = config.GetString("rli_dsn", "");
    out->rli.accept_bloom = config.GetBool("rli_bloomfilter", true);
    if (out->rli.dsn.empty() && !out->rli.accept_bloom) {
      return Status::InvalidArgument(
          "rli_server needs rli_dsn and/or rli_bloomfilter true");
    }
    out->rli.timeout = std::chrono::seconds(config.GetInt("rli_timeout_s", 0));
    for (const std::string& value : config.GetAll("rli_parent")) {
      out->rli.parents.push_back(ParseTarget(value));
    }
  }

  if (config.GetBool("authentication", false)) {
    gsi::Gridmap gridmap;
    for (const std::string& line : config.GetAll("gridmap")) {
      Status s = gsi::Gridmap::Parse(line, &gridmap);
      if (!s.ok()) return s;
    }
    gsi::Acl acl;
    for (const std::string& line : config.GetAll("acl")) {
      Status s = acl.AddEntryFromString(line);
      if (!s.ok()) return s;
    }
    if (acl.size() == 0) {
      return Status::InvalidArgument(
          "authentication enabled but no acl entries grant anything");
    }
    out->auth = gsi::AuthManager::Secured(
        std::move(gridmap), std::move(acl),
        std::chrono::microseconds(config.GetInt("auth_handshake_us", 1500)));
  }
  return Status::Ok();
}

Status EnsureDatabases(const RlsServerConfig& config, dbapi::Environment& env,
                       const std::string& wal_dir) {
  auto ensure = [&](const std::string& dsn, bool custom_profile) -> Status {
    if (dsn.empty() || env.Find(dsn)) return Status::Ok();
    std::string wal;
    if (!wal_dir.empty()) {
      std::string file = dsn;
      for (char& c : file) {
        if (c == '/' || c == ':') c = '_';
      }
      wal = wal_dir + "/" + file + ".wal";
    }
    if (!custom_profile) return env.CreateDatabase(dsn, wal);
    // Custom WAL profile: persistent log (wal_recovery) and/or group
    // commit.
    rdb::BackendKind kind;
    std::string name;
    Status s = dbapi::ParseDsn(dsn, &kind, &name);
    if (!s.ok()) return s;
    rdb::BackendProfile profile = kind == rdb::BackendKind::kPostgreSQL
                                      ? rdb::BackendProfile::PostgreSQL()
                                      : rdb::BackendProfile::MySQL();
    profile.wal_recovery = config.lrc.wal_recovery;
    profile.wal_group_commit = config.lrc.wal_group_commit;
    profile.wal_group_max_commits = config.lrc.wal_group_max_commits;
    profile.wal_group_max_wait = config.lrc.wal_group_max_wait;
    return env.CreateDatabaseWithProfile(dsn, profile, wal);
  };
  Status s = ensure(config.lrc.enabled ? config.lrc.dsn : "",
                    config.lrc.wal_recovery || config.lrc.wal_group_commit);
  if (!s.ok()) return s;
  // RLI relational state is soft state (rebuilt by LRC updates): scratch
  // WAL profile always.
  return ensure(config.rli.enabled ? config.rli.dsn : "", false);
}

Status Topology::Create(const Config& config, net::Transport* network,
                        dbapi::Environment* env, std::unique_ptr<Topology>* out) {
  // Group server.<name>.<key> entries into per-server configs. Names are
  // declared up front by the 'servers' key; per-server keys come from the
  // fixed vocabulary below.
  std::map<std::string, Config> per_server;
  std::vector<std::string> order;  // declaration order = start order
  static const char* kKeys[] = {
      "address", "url", "lrc_server", "rli_server", "lrc_dsn", "rli_dsn",
      "wal_recovery", "wal_group_commit", "wal_group_max_commits",
      "wal_group_max_wait_us",
      "rli_bloomfilter", "rli_timeout_s", "rli_parent",
      "update_mode", "update_rli", "update_full_interval_ms",
      "update_immediate_interval_ms", "update_buffer_count", "update_chunk_size",
      "update_bloom_expected_entries", "authentication", "gridmap", "acl",
      "auth_handshake_us"};
  auto servers_line = config.Get("servers");
  if (!servers_line) {
    return Status::InvalidArgument(
        "topology config needs 'servers <name> <name> ...'");
  }
  for (const std::string& field : rlscommon::Split(*servers_line, ' ')) {
    std::string name(rlscommon::Trim(field));
    if (name.empty()) continue;
    order.push_back(name);
    Config sub;
    for (const char* key : kKeys) {
      for (const std::string& value :
           config.GetAll("server." + name + "." + key)) {
        sub.Set(key, value);
      }
    }
    per_server.emplace(name, std::move(sub));
  }
  if (order.empty()) return Status::InvalidArgument("'servers' lists no names");

  std::unique_ptr<Topology> topology(new Topology());
  for (const std::string& name : order) {
    RlsServerConfig server_config;
    Status s = ConfigureServer(per_server.at(name), &server_config);
    if (!s.ok()) {
      topology->StopAll();
      return Status::InvalidArgument("server '" + name + "': " + s.message());
    }
    s = EnsureDatabases(server_config, *env);
    if (!s.ok()) {
      topology->StopAll();
      return s;
    }
    auto server = std::make_unique<RlsServer>(network, server_config, env);
    s = server->Start();
    if (!s.ok()) {
      topology->StopAll();
      return Status::Internal("server '" + name + "' failed to start: " + s.message());
    }
    topology->servers_.emplace(name, std::move(server));
  }
  *out = std::move(topology);
  return Status::Ok();
}

Topology::~Topology() { StopAll(); }

RlsServer* Topology::Find(const std::string& name) {
  auto it = servers_.find(name);
  return it == servers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Topology::ServerNames() const {
  std::vector<std::string> names;
  names.reserve(servers_.size());
  for (const auto& [name, server] : servers_) names.push_back(name);
  return names;
}

void Topology::StopAll() {
  for (auto& [name, server] : servers_) server->Stop();
}

}  // namespace rls
