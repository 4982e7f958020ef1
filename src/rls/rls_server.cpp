#include "rls/rls_server.h"

#include <algorithm>

#include "common/build_info.h"
#include "common/logging.h"
#include "common/trace_context.h"
#include "obs/span_recorder.h"
#include "obs/trace.h"
#include "rls/client.h"

namespace rls {

using rlscommon::Status;

namespace {

/// Runs a create, add or delete on the one mapping the request carries.
Status ApplyToOneMapping(LrcStore* store, const MappingRequest& request,
                         Status (LrcStore::*op)(const std::string&, const std::string&)) {
  if (request.mappings.size() != 1) {
    return Status::Protocol("expected exactly one mapping");
  }
  return (store->*op)(request.mappings[0].logical, request.mappings[0].target);
}

/// Runs `op` on every item of a bulk attribute request; the reply lists
/// the items that failed.
template <typename Fn>
Status ApplyToEachItem(const BulkAttrRequest& request, BulkStatusResponse* reply, Fn op) {
  for (uint32_t i = 0; i < request.items.size(); ++i) {
    const Status s = op(request.items[i]);
    if (s.ok()) {
      ++reply->succeeded;
    } else {
      reply->failures.push_back({i, s.code()});
    }
  }
  return Status::Ok();
}

/// An uncompressed update sent to an RLI without a relational store.
Status BloomOnly() {
  return Status::Unsupported("RLI accepts only Bloom updates (no database)");
}

/// Merges `extra` into `base`, dropping duplicates, preserving order.
void MergeUnique(std::vector<std::string>* base, const std::vector<std::string>& extra) {
  for (const std::string& value : extra) {
    if (std::find(base->begin(), base->end(), value) == base->end()) {
      base->push_back(value);
    }
  }
}

/// The LRCs an RLI's stores name for `lfn`, the relational store's
/// first; false when neither store knows the name. A Bloom-only RLI's
/// matches go straight into `lrcs`.
bool QueryRliStores(const RliRelationalStore* relational, const RliBloomStore* bloom,
                    const std::string& lfn, std::vector<std::string>* lrcs) {
  lrcs->clear();
  if (!relational) return bloom && bloom->Query(lfn, lrcs).ok();
  bool found = relational->Query(lfn, lrcs).ok();
  std::vector<std::string> from_bloom;
  if (bloom && bloom->Query(lfn, &from_bloom).ok()) {
    MergeUnique(lrcs, from_bloom);
    found = true;
  }
  return found;
}

}  // namespace

RlsServer::RlsServer(net::Transport* network, RlsServerConfig config,
                     dbapi::Environment* env, rlscommon::Clock* clock)
    : network_(network), config_(std::move(config)), env_(env), clock_(clock) {
  if (config_.url.empty()) config_.url = config_.address;
  rli_updates_received_ = registry_.GetCounter("rli_updates_received_total");
  rli_expired_entries_ = registry_.GetCounter("rli_expired_entries_total");
  ss_receive_lag_ = registry_.GetHistogram("ss_receive_lag_us");
}

RlsServer::~RlsServer() { Stop(); }

Status RlsServer::Start() {
  if (config_.lrc.enabled) {
    Status s = LrcStore::Create(*env_, config_.lrc.dsn, &lrc_store_);
    if (!s.ok()) return s;
    lrc_store_->pool().BindMetrics(&registry_, "lrc");
    update_manager_ = std::make_unique<UpdateManager>(
        network_, lrc_store_.get(), config_.url, config_.lrc.update, &registry_, clock_);
    lrc_store_->SetChangeObserver([this](const std::string& lfn, bool added) {
      update_manager_->OnMappingChange(lfn, added);
    });
  }
  if (config_.rli.enabled) {
    if (!config_.rli.dsn.empty()) {
      Status s = RliRelationalStore::Create(*env_, config_.rli.dsn, &rli_relational_);
      if (!s.ok()) return s;
      rli_relational_->pool().BindMetrics(&registry_, "rli");
    }
    if (config_.rli.accept_bloom) {
      rli_bloom_ = std::make_unique<RliBloomStore>(clock_);
    }
    for (const UpdateTarget& parent : config_.rli.parents) {
      parents_.emplace_back(parent, nullptr);
    }
  }
  if (!config_.lrc.enabled && !config_.rli.enabled) {
    return Status::InvalidArgument("server must enable at least one role");
  }

  start_time_ = clock_->Now();
  RegisterGauges();
  if (config_.obs.slow_span_threshold.count() > 0) {
    obs::SetSlowSpanThreshold(config_.obs.slow_span_threshold);
  }
  if (config_.obs.trace_capacity > 0) {
    obs::SpanRecorder::Global().Enable(config_.obs.trace_capacity);
  }

  net::ServerOptions options;
  options.auth = config_.auth;
  options.metrics = &registry_;
  options.opcode_name = OpName;
  if (config_.limits.Enabled()) {
    admission_ = std::make_unique<AdmissionController>(config_.limits, clock_,
                                                       &registry_);
    options.workers = config_.limits.workers;
    options.queue_depth = config_.limits.queue_depth;
    options.shed_retry_after = config_.limits.retry_after;
    options.admission = [this](const gsi::AuthContext& auth, uint16_t opcode) {
      return admission_->Admit(auth, opcode);
    };
  }
  rpc_server_ = std::make_unique<net::RpcServer>(
      network_, config_.address, options,
      [this](const gsi::AuthContext& auth, uint16_t opcode,
             const std::string& request, std::string* response) {
        return Dispatch(auth, opcode, request, response);
      });
  Status s = rpc_server_->Start();
  if (!s.ok()) {
    // The stores go with this object; only the instruments reach
    // outside it: the Environment-owned WAL must not keep an observer
    // into registry_ once this server is gone.
    UnregisterGauges();
    return s;
  }

  if (update_manager_) update_manager_->Start();
  {
    std::lock_guard<std::mutex> lock(expire_mu_);
    running_ = true;
  }
  if (config_.rli.enabled && config_.rli.timeout.count() > 0) {
    expire_thread_ = std::thread([this] { ExpireLoop(); });
  }
  if (!config_.obs.export_path.empty()) {
    obs::JsonlExporter::Options eopts;
    eopts.path = config_.obs.export_path;
    eopts.period = config_.obs.export_period;
    exporter_ = std::make_unique<obs::JsonlExporter>(
        eopts, [this] { return RenderStatsJson(); }, clock_);
    s = exporter_->Start();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void RlsServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(expire_mu_);
    if (!running_) return;
    running_ = false;
  }
  expire_cv_.notify_all();
  if (expire_thread_.joinable()) expire_thread_.join();
  if (exporter_) exporter_->Stop();
  if (update_manager_) update_manager_->Stop();
  if (rpc_server_) rpc_server_->Stop();
  UnregisterGauges();
}

std::string RlsServer::role() const {
  if (config_.lrc.enabled && config_.rli.enabled) return "lrc+rli";
  return config_.lrc.enabled ? "lrc" : "rli";
}

void RlsServer::RegisterGauges() {
  auto gauge = [this](std::string name, std::function<double()> read) {
    registry_.RegisterCallback(name, "", std::move(read));
    gauges_.push_back(std::move(name));
  };
  gauge("server_uptime_seconds", [this] {
    return std::chrono::duration<double>(clock_->Now() - start_time_).count();
  });
  if (lrc_store_) {
    gauge("lrc_logical_names",
          [this] { return static_cast<double>(lrc_store_->LogicalNameCount()); });
    gauge("lrc_mappings", [this] { return static_cast<double>(lrc_store_->MappingCount()); });
  }
  if (lrc_store_ && lrc_store_->database()) {
    rdb::Database* db = lrc_store_->database();
    // WAL commit-scheduling instruments: batch-size distribution (its
    // count is the number of batches flushed) and time a committer
    // spends parked for its group's sync (exemplar = slowest waiter's
    // trace, the `wal_sync` stage in its breakdown).
    obs::Histogram* group_size = registry_.GetHistogram("wal_group_size");
    obs::Histogram* sync_wait = registry_.GetHistogram("wal_sync_wait_us");
    rdb::WalObserver wal_observer;
    wal_observer.group_commit = [group_size](uint64_t frames, uint64_t) {
      group_size->RecordMicros(frames);  // dimensionless: commits per batch
    };
    wal_observer.sync_wait = [sync_wait](uint64_t wait_us, uint64_t trace_id) {
      sync_wait->RecordMicros(wait_us);
      sync_wait->OfferExemplar(wait_us, trace_id);
    };
    db->wal().SetObserver(std::move(wal_observer));
    // What open-time replay did (all zero for a scratch log), then the
    // live commit counts.
    auto recovery = [&](std::string name, uint64_t rdb::RecoveryStats::*field) {
      gauge(std::move(name),
            [db, field] { return static_cast<double>(db->recovery_stats().*field); });
    };
    gauge("wal_recovery_enabled", [db] { return db->recovery_stats().enabled ? 1.0 : 0.0; });
    recovery("wal_recovered_txns", &rdb::RecoveryStats::recovered_txns);
    recovery("wal_records_applied", &rdb::RecoveryStats::records_applied);
    recovery("wal_snapshot_rows", &rdb::RecoveryStats::snapshot_rows);
    recovery("wal_torn_tail_bytes", &rdb::RecoveryStats::torn_tail_bytes);
    recovery("wal_recover_us", &rdb::RecoveryStats::recover_micros);
    gauge("wal_checksum_failures", [db] {
      return static_cast<double>(db->recovery_stats().checksum_failures +
                                 db->wal().checksum_failures());
    });
    gauge("wal_last_lsn", [db] { return static_cast<double>(db->wal().last_lsn()); });
    // Above one = group commit.
    gauge("wal_group_max_commits",
          [db] { return static_cast<double>(db->wal().group_max_commits()); });
    gauge("wal_commits", [db] { return static_cast<double>(db->wal().commits()); });
    gauge("wal_syncs", [db] { return static_cast<double>(db->wal().syncs()); });
  }
  if (rli_relational_) {
    gauge("rli_logical_names",
          [this] { return static_cast<double>(rli_relational_->LogicalNameCount()); });
    gauge("rli_associations",
          [this] { return static_cast<double>(rli_relational_->AssociationCount()); });
  }
  if (rli_bloom_) {
    gauge("rli_bloom_filters", [this] { return static_cast<double>(rli_bloom_->filter_count()); });
  }
  gauge("trace_recorder_depth",
        [] { return static_cast<double>(obs::SpanRecorder::Global().GetStats().depth); });
  gauge("trace_recorder_dropped",
        [] { return static_cast<double>(obs::SpanRecorder::Global().GetStats().dropped); });
  gauge("trace_recorder_capacity",
        [] { return static_cast<double>(obs::SpanRecorder::Global().GetStats().capacity); });
}

void RlsServer::UnregisterGauges() {
  // The WAL outlives this server (the Environment owns the database) but
  // its observer captures registry-owned instruments; detach it. The
  // gauges capture raw store pointers; drop them before the stores go.
  if (lrc_store_ && lrc_store_->database()) {
    lrc_store_->database()->wal().SetObserver({});
  }
  for (const std::string& name : gauges_) registry_.UnregisterCallback(name, "");
  gauges_.clear();
}

std::string RlsServer::RenderStatsJson() const {
  return registry_.RenderJson("\"server\": \"" + config_.url + "\", \"role\": \"" + role() +
                              "\"");
}

GetStatsResponse RlsServer::GetStatsSnapshot() const {
  GetStatsResponse resp;
  resp.role = role();
  resp.build_flags = rlscommon::BuildDescription();
  resp.last_update_trace_id = last_update_trace_id_.load(std::memory_order_relaxed);
  if (update_manager_) resp.targets = update_manager_->TargetStatuses();
  obs::Snapshot snapshot = registry_.TakeSnapshot();
  resp.metrics.reserve(snapshot.samples.size());
  for (const obs::Sample& sample : snapshot.samples) {
    MetricSample m;
    m.name = sample.name;
    m.labels = sample.labels;
    m.kind = static_cast<uint8_t>(sample.kind);
    m.value = sample.value;
    if (sample.kind == obs::MetricKind::kHistogram) {
      m.mean_us = sample.hist.mean_us;
      m.p50_us = sample.hist.p50_us;
      m.p95_us = sample.hist.p95_us;
      m.p99_us = sample.hist.p99_us;
      m.p999_us = sample.hist.p999_us;
      m.max_us = sample.hist.max_us;
      m.exemplar_us = sample.exemplar_us;
      m.exemplar_trace = sample.exemplar_trace;
    }
    resp.metrics.push_back(std::move(m));
  }
  return resp;
}

rlscommon::TimePoint RlsServer::ExpireNow() {
  const auto timeout = config_.rli.timeout;
  if (timeout.count() <= 0) return rlscommon::TimePoint::max();
  const rlscommon::TimePoint now = clock_->Now();
  // A store that holds nothing can next hold a stamp no older than now.
  rlscommon::TimePoint oldest = now;
  if (rli_relational_) {
    const int64_t cutoff =
        std::chrono::duration_cast<std::chrono::microseconds>((now - timeout).time_since_epoch())
            .count();
    uint64_t removed = 0;
    if (rli_relational_->ExpireOlderThan(cutoff, &removed).ok()) {
      rli_expired_entries_->Increment(removed);
    }
    int64_t stamp = 0;
    if (rli_relational_->OldestStamp(&stamp)) {
      oldest = std::min(oldest, rlscommon::TimePoint(std::chrono::microseconds(stamp)));
    }
  }
  if (rli_bloom_) {
    rli_expired_entries_->Increment(rli_bloom_->ExpireOlderThan(timeout));
    rlscommon::TimePoint stamp;
    if (rli_bloom_->OldestStamp(&stamp)) oldest = std::min(oldest, stamp);
  }
  return oldest + timeout;
}

void RlsServer::ExpireLoop() {
  std::unique_lock<std::mutex> lock(expire_mu_);
  while (running_) {
    lock.unlock();
    const rlscommon::TimePoint next = ExpireNow();
    lock.lock();
    clock_->WaitUntil(lock, expire_cv_, next, [this] { return !running_; });
  }
}

// ---------------------------------------------------------------------
// Handlers: one Handle<Op> per kOpTable row. Each gets its decoded
// request and fills its reply; Serve<Op> does the wire work around it.
// ---------------------------------------------------------------------

// --- any role ---

template <>
Status RlsServer::Handle<kPing>(const NoBody&, NoBody*) {
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kServerGetStats>(const NoBody&, GetStatsResponse* reply) {
  *reply = GetStatsSnapshot();
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kServerGetTraces>(const GetTracesRequest& request,
                                           GetTracesResponse* reply) {
  obs::TraceFilter filter;
  filter.trace_id = request.trace_id;
  filter.name = request.method;
  filter.component = request.component;
  filter.min_duration_us = request.min_duration_us;
  filter.limit = request.limit;
  filter.slow_log = request.source == TraceSource::kSlowLog;
  obs::SpanRecorder& recorder = obs::SpanRecorder::Global();
  const obs::SpanRecorder::Stats rstats = recorder.GetStats();
  reply->depth = rstats.depth;
  reply->dropped = rstats.dropped;
  reply->capacity = rstats.capacity;
  for (obs::CompletedSpan& span : recorder.Query(filter)) {
    TraceSpan out;
    out.component = std::move(span.component);
    out.name = std::move(span.name);
    out.trace_id = span.trace_id;
    out.span_id = span.span_id;
    out.tid = span.tid;
    out.start_us = span.start_us;
    out.duration_us = span.duration_us;
    out.hops.reserve(span.hops.size());
    for (auto& [hop_name, offset_us] : span.hops) {
      out.hops.push_back(TraceHop{std::move(hop_name), offset_us});
    }
    reply->spans.push_back(std::move(out));
  }
  return Status::Ok();
}

// --- LRC role ---

template <>
Status RlsServer::Handle<kLrcCreate>(const MappingRequest& request, NoBody*) {
  return ApplyToOneMapping(lrc_store_.get(), request, &LrcStore::CreateMapping);
}

template <>
Status RlsServer::Handle<kLrcAdd>(const MappingRequest& request, NoBody*) {
  return ApplyToOneMapping(lrc_store_.get(), request, &LrcStore::AddMapping);
}

template <>
Status RlsServer::Handle<kLrcDelete>(const MappingRequest& request, NoBody*) {
  return ApplyToOneMapping(lrc_store_.get(), request, &LrcStore::DeleteMapping);
}

// The bulk forms run one multi-row WAL transaction for the whole batch
// (single log append + single sync) instead of a commit per item.
template <>
Status RlsServer::Handle<kLrcBulkCreate>(const MappingRequest& request,
                                         BulkStatusResponse* reply) {
  return lrc_store_->CreateMappings(request.mappings, reply);
}

template <>
Status RlsServer::Handle<kLrcBulkAdd>(const MappingRequest& request,
                                      BulkStatusResponse* reply) {
  return lrc_store_->AddMappings(request.mappings, reply);
}

template <>
Status RlsServer::Handle<kLrcBulkDelete>(const MappingRequest& request,
                                         BulkStatusResponse* reply) {
  return lrc_store_->DeleteMappings(request.mappings, reply);
}

template <>
Status RlsServer::Handle<kLrcQueryLfn>(const NameQueryRequest& request,
                                       StringListResponse* reply) {
  return lrc_store_->QueryLogical(request.name, &reply->values, request.offset,
                                  request.limit);
}

template <>
Status RlsServer::Handle<kLrcQueryPfn>(const NameQueryRequest& request,
                                       StringListResponse* reply) {
  return lrc_store_->QueryTarget(request.name, &reply->values, request.offset,
                                 request.limit);
}

template <>
Status RlsServer::Handle<kLrcBulkQueryLfn>(const BulkQueryRequest& request,
                                           MappingListResponse* reply) {
  std::vector<std::string> targets;
  for (const std::string& lfn : request.names) {
    if (lrc_store_->QueryLogical(lfn, &targets).ok()) {
      for (std::string& target : targets) {
        reply->mappings.push_back(Mapping{lfn, std::move(target)});
      }
    }
  }
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kLrcWildcardQueryLfn>(const NameQueryRequest& request,
                                               MappingListResponse* reply) {
  return lrc_store_->WildcardQuery(request.name, request.limit, &reply->mappings,
                                   request.offset);
}

template <>
Status RlsServer::Handle<kLrcExists>(const NameQueryRequest& request, NoBody*) {
  return lrc_store_->LogicalExists(request.name)
             ? Status::Ok()
             : Status::NotFound("not registered: " + request.name);
}

template <>
Status RlsServer::Handle<kLrcAttrDefine>(const AttrDefineRequest& request, NoBody*) {
  return lrc_store_->DefineAttribute(request.name, request.object, request.type);
}

template <>
Status RlsServer::Handle<kLrcAttrUndefine>(const AttrDefineRequest& request, NoBody*) {
  return lrc_store_->UndefineAttribute(request.name, request.object);
}

template <>
Status RlsServer::Handle<kLrcAttrAdd>(const AttrValueRequest& request, NoBody*) {
  return lrc_store_->AddAttribute(request);
}

template <>
Status RlsServer::Handle<kLrcAttrModify>(const AttrValueRequest& request, NoBody*) {
  return lrc_store_->ModifyAttribute(request);
}

template <>
Status RlsServer::Handle<kLrcAttrDelete>(const AttrValueRequest& request, NoBody*) {
  return lrc_store_->DeleteAttribute(request.object_name, request.attr_name,
                                     request.object);
}

template <>
Status RlsServer::Handle<kLrcBulkAttrAdd>(const BulkAttrRequest& request,
                                          BulkStatusResponse* reply) {
  return ApplyToEachItem(request, reply, [this](const AttrValueRequest& item) {
    return lrc_store_->AddAttribute(item);
  });
}

template <>
Status RlsServer::Handle<kLrcBulkAttrDelete>(const BulkAttrRequest& request,
                                             BulkStatusResponse* reply) {
  return ApplyToEachItem(request, reply, [this](const AttrValueRequest& item) {
    return lrc_store_->DeleteAttribute(item.object_name, item.attr_name, item.object);
  });
}

template <>
Status RlsServer::Handle<kLrcAttrQueryObj>(const AttrValueRequest& request,
                                           AttrListResponse* reply) {
  // The request's attribute name and value are ignored.
  return lrc_store_->QueryObjectAttributes(request.object_name, request.object,
                                           &reply->attributes);
}

template <>
Status RlsServer::Handle<kLrcAttrSearch>(const AttrSearchRequest& request,
                                         AttrListResponse* reply) {
  std::vector<std::pair<std::string, AttrValue>> found;
  Status s = lrc_store_->SearchAttribute(request, &found);
  if (!s.ok()) return s;
  for (auto& [object_name, value] : found) {
    Attribute a;
    a.name = object_name;  // object names keyed by attribute value
    a.object = request.object;
    a.value = value;
    reply->attributes.push_back(std::move(a));
  }
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kLrcRliList>(const NoBody&, StringListResponse* reply) {
  return lrc_store_->ListRlis(&reply->values);
}

template <>
Status RlsServer::Handle<kLrcRliAdd>(const NameQueryRequest& request, NoBody*) {
  Status s = lrc_store_->AddRli(request.name);
  if (s.ok() && update_manager_) {
    update_manager_->AddTarget(UpdateTarget{request.name, net::LinkModel::Loopback(), {}});
  }
  return s;
}

template <>
Status RlsServer::Handle<kLrcRliRemove>(const NameQueryRequest& request, NoBody*) {
  Status s = lrc_store_->RemoveRli(request.name);
  if (s.ok() && update_manager_) update_manager_->RemoveTarget(request.name);
  return s;
}

template <>
Status RlsServer::Handle<kLrcForceUpdate>(const NoBody&, NoBody*) {
  if (!update_manager_) return Status::Unsupported("no update manager");
  Status s = update_manager_->FlushImmediate();
  if (!s.ok()) return s;
  return update_manager_->ForceFullUpdate();
}

// --- RLI role: queries ---

template <>
Status RlsServer::Handle<kRliQueryLfn>(const NameQueryRequest& request,
                                       StringListResponse* reply) {
  if (!QueryRliStores(rli_relational_.get(), rli_bloom_.get(), request.name,
                      &reply->values)) {
    return Status::NotFound("no LRC holds mappings for: " + request.name);
  }
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kRliBulkQuery>(const BulkQueryRequest& request,
                                        MappingListResponse* reply) {
  std::vector<std::string> lrcs;
  for (const std::string& lfn : request.names) {
    QueryRliStores(rli_relational_.get(), rli_bloom_.get(), lfn, &lrcs);
    for (std::string& lrc : lrcs) {
      reply->mappings.push_back(Mapping{lfn, std::move(lrc)});
    }
  }
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kRliWildcardQuery>(const NameQueryRequest& request,
                                            MappingListResponse* reply) {
  if (!rli_relational_) {
    // Paper §5.4: wildcard searches on RLI contents "are not possible
    // when using Bloom filter compression".
    return Status::Unsupported("wildcard queries unsupported on a Bloom-filter RLI");
  }
  return rli_relational_->WildcardQuery(request.name, request.limit, &reply->mappings);
}

template <>
Status RlsServer::Handle<kRliLrcList>(const NoBody&, StringListResponse* reply) {
  if (rli_relational_) {
    Status s = rli_relational_->ListLrcs(&reply->values);
    if (!s.ok()) return s;
  }
  if (rli_bloom_) {
    std::vector<std::string> from_bloom;
    Status s = rli_bloom_->ListLrcs(&from_bloom);
    if (!s.ok()) return s;
    MergeUnique(&reply->values, from_bloom);
  }
  return Status::Ok();
}

// --- RLI role: soft-state updates. Uncompressed ones (full, incremental)
// need the relational store; every stored update goes on to the parents.

void RlsServer::NoteUpdate(bool count, int64_t sent_micros, int64_t received_micros) {
  if (count) rli_updates_received_->Increment();
  // Summarize->receive lag of this hop, and the trace that produced it
  // (the sender re-stamps the originating client's trace id).
  if (sent_micros > 0 && received_micros >= sent_micros) {
    ss_receive_lag_->RecordMicros(static_cast<uint64_t>(received_micros - sent_micros));
  }
  const rlscommon::TraceContext trace = rlscommon::CurrentTrace();
  if (trace.valid()) {
    last_update_trace_id_.store(trace.trace_id, std::memory_order_relaxed);
  }
  // Stage stamp: everything since the last hop was soft-state ingest.
  rlscommon::StampHop("rli_ingest");
}

template <Op Code>
void RlsServer::ForwardToParents(const RequestOf<Code>& request) {
  std::lock_guard<std::mutex> lock(parents_mu_);
  for (auto& [target, client] : parents_) {
    if (!client) {
      net::ClientOptions options;
      options.link = target.link;
      if (!net::RpcClient::Connect(network_, target.address, options, &client).ok()) {
        RLS_WARN("rli") << config_.url << ": cannot reach parent RLI " << target.address;
        continue;
      }
    }
    Status s = Invoke<Code>(*client, request);
    if (!s.ok()) {
      RLS_WARN("rli") << config_.url << ": forward to " << target.address
                      << " failed: " << s.ToString();
      client.reset();  // reconnect next time
    }
  }
}

template <>
Status RlsServer::Handle<kSsFullBegin>(const FullUpdateBegin& request, NoBody*) {
  if (!rli_relational_) return BloomOnly();
  NoteUpdate(/*count=*/false, request.sent_micros, clock_->NowMicros());
  ForwardToParents<kSsFullBegin>(request);
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kSsFullChunk>(const FullUpdateChunk& request, NoBody*) {
  if (!rli_relational_) return BloomOnly();
  Status s = rli_relational_->UpsertBatch(request.names, request.lrc_url,
                                          clock_->NowMicros());
  if (!s.ok()) return s;
  rlscommon::StampHop("rli_ingest");
  ForwardToParents<kSsFullChunk>(request);
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kSsFullEnd>(const FullUpdateEnd& request, NoBody*) {
  if (!rli_relational_) return BloomOnly();
  NoteUpdate(/*count=*/true);
  ForwardToParents<kSsFullEnd>(request);
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kSsIncremental>(const IncrementalUpdate& request, NoBody*) {
  if (!rli_relational_) return BloomOnly();
  const int64_t now_micros = clock_->NowMicros();
  Status s = rli_relational_->UpsertBatch(request.added, request.lrc_url, now_micros);
  if (!s.ok()) return s;
  for (const std::string& lfn : request.removed) {
    s = rli_relational_->Remove(lfn, request.lrc_url);
    if (!s.ok()) return s;
  }
  NoteUpdate(/*count=*/true, request.sent_micros, now_micros);
  ForwardToParents<kSsIncremental>(request);
  return Status::Ok();
}

template <>
Status RlsServer::Handle<kSsBloom>(const BloomUpdate& request, NoBody*) {
  if (!rli_bloom_) return Status::Unsupported("RLI does not accept Bloom updates");
  const int64_t now_micros = clock_->NowMicros();
  bloom::BloomFilter filter;
  Status s = bloom::BloomFilter::Deserialize(request.filter_bytes, &filter);
  if (!s.ok()) return s;
  rli_bloom_->StoreFilter(request.lrc_url, std::move(filter));
  NoteUpdate(/*count=*/true, request.sent_micros, now_micros);
  ForwardToParents<kSsBloom>(request);
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Dispatch. It comes after every Handle<Op> above, so that each Serve<Op>
// it instantiates sees its handler.
// ---------------------------------------------------------------------

template <Op Code>
Status RlsServer::Serve(const std::string& request, std::string* response) {
  RequestOf<Code> decoded;
  Status s = net::DecodeMessage(request, &decoded);
  if (!s.ok()) return s;
  ReplyOf<Code> reply;
  s = Handle<Code>(decoded, &reply);
  if (s.ok()) net::EncodeMessage(reply, response);
  return s;
}

Status RlsServer::Dispatch(const gsi::AuthContext& auth, uint16_t opcode,
                           const std::string& request, std::string* response) {
  const OpSpec* op = FindOp(opcode);
  if (!op) return Status::Protocol("unknown opcode " + std::to_string(opcode));
  const OpRole role = op->role();
  if (role == OpRole::kLrc && !config_.lrc.enabled) {
    return Status::Unsupported("server has no LRC role");
  }
  if (role == OpRole::kRli && !config_.rli.enabled) {
    return Status::Unsupported("server has no RLI role");
  }
  if (op->privilege) {
    Status s = config_.auth.Authorize(auth, *op->privilege);
    rlscommon::StampHop("auth");
    if (!s.ok()) return s;
  }
  // Serve<Op> of every row, in kOpTable order.
  static constexpr auto kAdapters = std::apply(
      [](const auto&... row) {
        return std::array{
            &RlsServer::Serve<std::remove_cvref_t<decltype(row)>::kOpcode>...};
      },
      kOpRows);
  return (this->*kAdapters[op - kOpTable.data()])(request, response);
}

}  // namespace rls
