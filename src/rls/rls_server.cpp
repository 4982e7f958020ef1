#include "rls/rls_server.h"

#include <algorithm>

#include "common/build_info.h"
#include "common/logging.h"
#include "common/trace_context.h"
#include "obs/span_recorder.h"
#include "obs/trace.h"

namespace rls {

using rlscommon::Status;

namespace {

/// Single-mapping decode helper for kLrcCreate/kLrcAdd/kLrcDelete.
Status DecodeOneMapping(const std::string& request, Mapping* out) {
  MappingRequest req;
  Status s = MappingRequest::Decode(request, &req);
  if (!s.ok()) return s;
  if (req.mappings.size() != 1) {
    return Status::Protocol("expected exactly one mapping");
  }
  *out = std::move(req.mappings[0]);
  return Status::Ok();
}

/// Merges `extra` into `base`, dropping duplicates, preserving order.
void MergeUnique(std::vector<std::string>* base, const std::vector<std::string>& extra) {
  for (const std::string& value : extra) {
    if (std::find(base->begin(), base->end(), value) == base->end()) {
      base->push_back(value);
    }
  }
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
        network_, lrc_store_.get(), config_.url, config_.lrc.update, clock_);
    update_manager_->BindMetrics(&registry_);
    lrc_store_->SetChangeObserver([this](const std::string& lfn, bool added) {
      update_manager_->OnMappingChange(lfn, added);
    });
    if (lrc_store_->database()) {
      rdb::Database* db = lrc_store_->database();
      // WAL commit-scheduling instruments: batch-size distribution,
      // time a committer spends parked for its group's sync (exemplar =
      // slowest waiter's trace, the `wal_sync` stage in its breakdown),
      // and batches flushed.
      obs::Histogram* group_size = registry_.GetHistogram("wal_group_size");
      obs::Histogram* sync_wait = registry_.GetHistogram("wal_sync_wait_us");
      obs::Counter* group_commits = registry_.GetCounter("wal_group_commits_total");
      rdb::WalObserver wal_observer;
      wal_observer.group_commit = [group_size, group_commits](uint64_t frames,
                                                              uint64_t) {
        group_size->RecordMicros(frames);  // dimensionless: commits per batch
        group_commits->Increment();
      };
      wal_observer.sync_wait = [sync_wait](uint64_t wait_us, uint64_t trace_id) {
        sync_wait->RecordMicros(wait_us);
        sync_wait->OfferExemplar(wait_us, trace_id);
      };
      db->wal().SetObserver(std::move(wal_observer));
    }
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

  // Monitoring-side worker pool: runs JSONL export writes so the pool's
  // queue/latency instruments see real traffic.
  worker_pool_ = std::make_unique<rlscommon::ThreadPool>(1, "obs-worker");
  rlscommon::ThreadPool::MetricHooks hooks;
  hooks.queue_wait = registry_.GetHistogram("threadpool_queue_wait_us")->raw();
  hooks.run_time = registry_.GetHistogram("threadpool_task_run_us")->raw();
  hooks.tasks_completed =
      registry_.GetCounter("threadpool_tasks_completed_total")->raw();
  worker_pool_->BindMetrics(hooks);

  start_time_ = clock_->Now();
  RegisterGauges();
  if (config_.obs.slow_span_threshold.count() > 0) {
    obs::SetSlowSpanThreshold(config_.obs.slow_span_threshold);
  }
  if (config_.obs.trace_capacity > 0) {
    obs::SpanRecorder::Global().Enable(config_.obs.trace_capacity);
  }

  net::ServerOptions options;
  options.name = config_.url;
  options.auth = config_.auth;
  options.metrics = &registry_;
  options.opcode_name = OpName;
  if (config_.limits.Enabled()) {
    admission_ = std::make_unique<AdmissionController>(config_.limits, clock_,
                                                       &registry_);
    options.workers = config_.limits.workers;
    options.queue_depth = config_.limits.queue_depth;
    options.priority_queue_depth = config_.limits.priority_queue_depth;
    options.shed_retry_after = config_.limits.retry_after;
    options.admission = [this](const gsi::AuthContext& auth, uint16_t opcode,
                               const std::string& request) {
      return admission_->Admit(auth, opcode, request);
    };
  }
  rpc_server_ = std::make_unique<net::RpcServer>(
      network_, config_.address, options,
      [this](const gsi::AuthContext& auth, uint16_t opcode,
             const std::string& request, std::string* response) {
        return Dispatch(auth, opcode, request, response);
      });
  Status s = rpc_server_->Start();
  if (!s.ok()) return s;

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
        eopts, [this] { return RenderStatsJson(); }, worker_pool_.get());
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
  // The WAL outlives this server (the Environment owns the database) but
  // its observer captures registry-owned instruments; detach it.
  if (lrc_store_ && lrc_store_->database()) {
    lrc_store_->database()->wal().SetObserver({});
  }
  // The gauges capture raw store pointers; drop them before the stores go.
  UnregisterGauges();
}

std::string RlsServer::role() const {
  if (config_.lrc.enabled && config_.rli.enabled) return "lrc+rli";
  return config_.lrc.enabled ? "lrc" : "rli";
}

void RlsServer::RegisterGauges() {
  registry_.RegisterCallback("server_uptime_seconds", "", [this] {
    return std::chrono::duration<double>(clock_->Now() - start_time_).count();
  });
  registry_.RegisterCallback("threadpool_queue_depth", "", [this] {
    return static_cast<double>(worker_pool_->QueueDepth());
  });
  if (lrc_store_) {
    registry_.RegisterCallback("lrc_logical_names", "", [this] {
      return static_cast<double>(lrc_store_->LogicalNameCount());
    });
    registry_.RegisterCallback("lrc_mappings", "", [this] {
      return static_cast<double>(lrc_store_->MappingCount());
    });
  }
  if (lrc_store_ && lrc_store_->database()) {
    rdb::Database* db = lrc_store_->database();
    registry_.RegisterCallback("wal_recovered_txns", "", [db] {
      return static_cast<double>(db->recovery_stats().recovered_txns);
    });
    registry_.RegisterCallback("wal_torn_tail_bytes", "", [db] {
      return static_cast<double>(db->recovery_stats().torn_tail_bytes);
    });
    registry_.RegisterCallback("wal_checksum_failures", "", [db] {
      return static_cast<double>(db->recovery_stats().checksum_failures +
                                 db->wal().checksum_failures());
    });
    registry_.RegisterCallback("wal_commits", "", [db] {
      return static_cast<double>(db->wal().commits());
    });
    registry_.RegisterCallback("wal_syncs", "", [db] {
      return static_cast<double>(db->wal().syncs());
    });
  }
  if (rli_relational_) {
    registry_.RegisterCallback("rli_associations", "", [this] {
      return static_cast<double>(rli_relational_->AssociationCount());
    });
  }
  if (rli_bloom_) {
    registry_.RegisterCallback("rli_bloom_filters", "", [this] {
      return static_cast<double>(rli_bloom_->filter_count());
    });
  }
  registry_.RegisterCallback("trace_recorder_depth", "", [] {
    return static_cast<double>(obs::SpanRecorder::Global().GetStats().depth);
  });
  registry_.RegisterCallback("trace_recorder_dropped", "", [] {
    return static_cast<double>(obs::SpanRecorder::Global().GetStats().dropped);
  });
}

void RlsServer::UnregisterGauges() {
  registry_.UnregisterCallback("server_uptime_seconds", "");
  registry_.UnregisterCallback("threadpool_queue_depth", "");
  registry_.UnregisterCallback("lrc_logical_names", "");
  registry_.UnregisterCallback("lrc_mappings", "");
  registry_.UnregisterCallback("wal_recovered_txns", "");
  registry_.UnregisterCallback("wal_torn_tail_bytes", "");
  registry_.UnregisterCallback("wal_checksum_failures", "");
  registry_.UnregisterCallback("wal_commits", "");
  registry_.UnregisterCallback("wal_syncs", "");
  registry_.UnregisterCallback("rli_associations", "");
  registry_.UnregisterCallback("rli_bloom_filters", "");
  registry_.UnregisterCallback("trace_recorder_depth", "");
  registry_.UnregisterCallback("trace_recorder_dropped", "");
}

std::string RlsServer::RenderStatsJson() const {
  const double uptime =
      std::chrono::duration<double>(clock_->Now() - start_time_).count();
  std::string extra = "\"server\": \"" + config_.url + "\", \"role\": \"" +
                      role() + "\", \"uptime_seconds\": " +
                      std::to_string(uptime);
  return registry_.RenderJson(extra);
}

GetStatsResponse RlsServer::GetStatsSnapshot() const {
  GetStatsResponse resp;
  resp.role = role();
  resp.uptime_seconds =
      std::chrono::duration<double>(clock_->Now() - start_time_).count();
  resp.build_flags = rlscommon::BuildDescription();
  resp.vitals = Stats();
  resp.last_update_trace_id =
      last_update_trace_id_.load(std::memory_order_relaxed);
  const obs::SpanRecorder::Stats rstats = obs::SpanRecorder::Global().GetStats();
  resp.trace_depth = rstats.depth;
  resp.trace_dropped = rstats.dropped;
  resp.trace_capacity = rstats.capacity;
  if (lrc_store_ && lrc_store_->database()) {
    rdb::Database* db = lrc_store_->database();
    const rdb::RecoveryStats& rec = db->recovery_stats();
    resp.wal.enabled = rec.enabled ? 1 : 0;
    resp.wal.recovered_txns = rec.recovered_txns;
    resp.wal.records_applied = rec.records_applied;
    resp.wal.snapshot_rows = rec.snapshot_rows;
    resp.wal.torn_tail_bytes = rec.torn_tail_bytes;
    resp.wal.checksum_failures =
        rec.checksum_failures + db->wal().checksum_failures();
    resp.wal.last_lsn = db->wal().last_lsn();
    resp.wal.recover_micros = rec.recover_micros;
    resp.wal.group_commit = db->wal().group_max_commits() > 1 ? 1 : 0;
    resp.wal.commits = db->wal().commits();
    resp.wal.syncs = db->wal().syncs();
    resp.wal.group_commits = db->wal().group_commits();
  }
  if (update_manager_) {
    for (const TargetFreshness& f : update_manager_->TargetStatuses()) {
      resp.targets.push_back(TargetStatus{f.address, f.updates_sent,
                                          f.seconds_since_last, f.healthy,
                                          f.consecutive_failures,
                                          f.full_resends});
    }
  }
  obs::Snapshot snapshot = registry_.TakeSnapshot();
  resp.metrics.reserve(snapshot.samples.size());
  for (const obs::Sample& sample : snapshot.samples) {
    MetricSample m;
    m.name = sample.name;
    m.labels = sample.labels;
    m.kind = static_cast<uint8_t>(sample.kind);
    m.value = sample.value;
    if (sample.kind == obs::MetricKind::kHistogram) {
      m.count = sample.hist.count;
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

ServerStats RlsServer::Stats() const {
  ServerStats stats;
  if (lrc_store_) {
    stats.lfn_count = lrc_store_->LogicalNameCount();
    stats.mapping_count = lrc_store_->MappingCount();
  } else if (rli_relational_) {
    stats.lfn_count = rli_relational_->LogicalNameCount();
    stats.mapping_count = rli_relational_->AssociationCount();
  }
  if (rpc_server_) {
    stats.requests_served = rpc_server_->requests_served();
    stats.requests_shed = rpc_server_->requests_shed();
  }
  if (admission_) stats.requests_shed += admission_->shed_total();
  stats.updates_received = rli_updates_received_->Value();
  if (update_manager_) {
    UpdateStats us = update_manager_->stats();
    stats.updates_sent = us.full_updates_sent + us.incremental_updates_sent +
                         us.bloom_updates_sent;
  }
  if (rli_bloom_) stats.bloom_filters = rli_bloom_->filter_count();
  return stats;
}

void RlsServer::ExpireNow() {
  const auto timeout = config_.rli.timeout;
  if (timeout.count() <= 0) return;
  if (rli_relational_) {
    const int64_t now_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                                   clock_->Now().time_since_epoch())
                                   .count();
    const int64_t cutoff =
        now_micros -
        std::chrono::duration_cast<std::chrono::microseconds>(timeout).count();
    uint64_t removed = 0;
    if (rli_relational_->ExpireOlderThan(cutoff, &removed).ok()) {
      rli_expired_entries_->Increment(removed);
    }
  }
  if (rli_bloom_) {
    rli_expired_entries_->Increment(rli_bloom_->ExpireOlderThan(timeout));
  }
}

void RlsServer::ExpireLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(expire_mu_);
      expire_cv_.wait_for(lock, config_.rli.expire_poll, [this] { return !running_; });
      if (!running_) return;
    }
    ExpireNow();
  }
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
  switch (role) {
    case OpRole::kLrc:
      return HandleLrc(opcode, request, response);
    case OpRole::kRli:
      return *op->privilege == gsi::Privilege::kRliWrite
                 ? HandleSoftState(opcode, request)
                 : HandleRli(opcode, request, response);
    case OpRole::kAny:
      break;
  }
  return HandleServer(opcode, request, response);
}

Status RlsServer::HandleServer(uint16_t opcode, const std::string& request,
                               std::string* response) {
  switch (opcode) {
    case kPing:
      *response = "pong";
      return Status::Ok();
    case kServerGetStats:
      GetStatsSnapshot().Encode(response);
      return Status::Ok();
    case kServerGetTraces: {
      GetTracesRequest req;
      Status s = GetTracesRequest::Decode(request, &req);
      if (!s.ok()) return s;
      obs::TraceFilter filter;
      filter.trace_id = req.trace_id;
      filter.name = req.method;
      filter.component = req.component;
      filter.min_duration_us = req.min_duration_us;
      filter.limit = req.limit;
      filter.slow_log = req.source == kTraceSourceSlowLog;
      obs::SpanRecorder& recorder = obs::SpanRecorder::Global();
      const obs::SpanRecorder::Stats rstats = recorder.GetStats();
      GetTracesResponse resp;
      resp.depth = rstats.depth;
      resp.dropped = rstats.dropped;
      resp.capacity = rstats.capacity;
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
        resp.spans.push_back(std::move(out));
      }
      resp.Encode(response);
      return Status::Ok();
    }
    default:
      return Status::Protocol("unhandled server opcode " + std::to_string(opcode));
  }
}

Status RlsServer::HandleLrc(uint16_t opcode, const std::string& request,
                            std::string* response) {
  LrcStore& store = *lrc_store_;
  Status s;
  switch (opcode) {
    case kLrcCreate:
    case kLrcAdd:
    case kLrcDelete: {
      Mapping m;
      s = DecodeOneMapping(request, &m);
      if (!s.ok()) return s;
      if (opcode == kLrcCreate) return store.CreateMapping(m.logical, m.target);
      if (opcode == kLrcAdd) return store.AddMapping(m.logical, m.target);
      return store.DeleteMapping(m.logical, m.target);
    }
    case kLrcBulkCreate:
    case kLrcBulkAdd:
    case kLrcBulkDelete: {
      MappingRequest req;
      s = MappingRequest::Decode(request, &req);
      if (!s.ok()) return s;
      // One multi-row WAL transaction for the whole batch (single log
      // append + single sync) instead of a commit per item.
      BulkStatusResponse result;
      if (opcode == kLrcBulkCreate) {
        s = store.CreateMappings(req.mappings, &result);
      } else if (opcode == kLrcBulkAdd) {
        s = store.AddMappings(req.mappings, &result);
      } else {
        s = store.DeleteMappings(req.mappings, &result);
      }
      if (!s.ok()) return s;
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcQueryLfn:
    case kLrcQueryPfn: {
      NameQueryRequest req;
      s = NameQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      StringListResponse result;
      s = opcode == kLrcQueryLfn
              ? store.QueryLogical(req.name, &result.values, req.offset, req.limit)
              : store.QueryTarget(req.name, &result.values, req.offset, req.limit);
      if (!s.ok()) return s;
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcBulkQueryLfn: {
      BulkQueryRequest req;
      s = BulkQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      MappingListResponse result;
      std::vector<std::string> targets;
      for (const std::string& lfn : req.names) {
        if (store.QueryLogical(lfn, &targets).ok()) {
          for (std::string& target : targets) {
            result.mappings.push_back(Mapping{lfn, std::move(target)});
          }
        }
      }
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcWildcardQueryLfn: {
      NameQueryRequest req;
      s = NameQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      MappingListResponse result;
      s = store.WildcardQuery(req.name, req.limit, &result.mappings, req.offset);
      if (!s.ok()) return s;
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcExists: {
      NameQueryRequest req;
      s = NameQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      return store.LogicalExists(req.name)
                 ? Status::Ok()
                 : Status::NotFound("not registered: " + req.name);
    }
    case kLrcAttrDefine: {
      AttrDefineRequest req;
      s = AttrDefineRequest::Decode(request, &req);
      if (!s.ok()) return s;
      return store.DefineAttribute(req.name, req.object, req.type);
    }
    case kLrcAttrUndefine: {
      AttrDefineRequest req;
      s = AttrDefineRequest::Decode(request, &req);
      if (!s.ok()) return s;
      return store.UndefineAttribute(req.name, req.object);
    }
    case kLrcAttrAdd:
    case kLrcAttrModify: {
      AttrValueRequest req;
      s = AttrValueRequest::Decode(request, &req);
      if (!s.ok()) return s;
      return opcode == kLrcAttrAdd ? store.AddAttribute(req)
                                   : store.ModifyAttribute(req);
    }
    case kLrcAttrDelete: {
      AttrValueRequest req;
      s = AttrValueRequest::Decode(request, &req);
      if (!s.ok()) return s;
      return store.DeleteAttribute(req.object_name, req.attr_name, req.object);
    }
    case kLrcBulkAttrAdd:
    case kLrcBulkAttrDelete: {
      BulkAttrRequest req;
      s = BulkAttrRequest::Decode(request, &req);
      if (!s.ok()) return s;
      BulkStatusResponse result;
      for (uint32_t i = 0; i < req.items.size(); ++i) {
        const AttrValueRequest& item = req.items[i];
        Status st = opcode == kLrcBulkAttrAdd
                        ? store.AddAttribute(item)
                        : store.DeleteAttribute(item.object_name, item.attr_name,
                                                item.object);
        if (st.ok()) {
          ++result.succeeded;
        } else {
          result.failures.push_back({i, st.code()});
        }
      }
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcAttrQueryObj: {
      AttrValueRequest req;  // value ignored
      s = AttrValueRequest::Decode(request, &req);
      if (!s.ok()) return s;
      AttrListResponse result;
      s = store.QueryObjectAttributes(req.object_name, req.object, &result.attributes);
      if (!s.ok()) return s;
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcAttrSearch: {
      AttrSearchRequest req;
      s = AttrSearchRequest::Decode(request, &req);
      if (!s.ok()) return s;
      std::vector<std::pair<std::string, AttrValue>> found;
      s = store.SearchAttribute(req, &found);
      if (!s.ok()) return s;
      AttrListResponse result;
      for (auto& [object_name, value] : found) {
        Attribute a;
        a.name = object_name;  // object names keyed by attribute value
        a.object = req.object;
        a.value = value;
        result.attributes.push_back(std::move(a));
      }
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcRliList: {
      StringListResponse result;
      s = store.ListRlis(&result.values);
      if (!s.ok()) return s;
      result.Encode(response);
      return Status::Ok();
    }
    case kLrcRliAdd:
    case kLrcRliRemove: {
      NameQueryRequest req;
      s = NameQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      if (opcode == kLrcRliAdd) {
        s = store.AddRli(req.name);
        if (s.ok() && update_manager_) {
          update_manager_->AddTarget(UpdateTarget{req.name, net::LinkModel::Loopback(), {}});
        }
        return s;
      }
      s = store.RemoveRli(req.name);
      if (s.ok() && update_manager_) update_manager_->RemoveTarget(req.name);
      return s;
    }
    case kLrcForceUpdate: {
      if (!update_manager_) return Status::Unsupported("no update manager");
      s = update_manager_->FlushImmediate();
      if (!s.ok()) return s;
      return update_manager_->ForceFullUpdate();
    }
    default:
      return Status::Protocol("unhandled LRC opcode " + std::to_string(opcode));
  }
}

Status RlsServer::HandleRli(uint16_t opcode, const std::string& request,
                            std::string* response) {
  Status s;
  switch (opcode) {
    case kRliQueryLfn: {
      NameQueryRequest req;
      s = NameQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      StringListResponse result;
      bool found = false;
      if (rli_relational_ &&
          rli_relational_->Query(req.name, &result.values).ok()) {
        found = true;
      }
      if (rli_bloom_) {
        std::vector<std::string> from_bloom;
        if (rli_bloom_->Query(req.name, &from_bloom).ok()) {
          MergeUnique(&result.values, from_bloom);
          found = true;
        }
      }
      if (!found) return Status::NotFound("no LRC holds mappings for: " + req.name);
      result.Encode(response);
      return Status::Ok();
    }
    case kRliBulkQuery: {
      BulkQueryRequest req;
      s = BulkQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      MappingListResponse result;
      std::vector<std::string> lrcs;
      for (const std::string& lfn : req.names) {
        lrcs.clear();
        if (rli_relational_) {
          std::vector<std::string> found;
          if (rli_relational_->Query(lfn, &found).ok()) MergeUnique(&lrcs, found);
        }
        if (rli_bloom_) {
          std::vector<std::string> found;
          if (rli_bloom_->Query(lfn, &found).ok()) MergeUnique(&lrcs, found);
        }
        for (std::string& lrc : lrcs) {
          result.mappings.push_back(Mapping{lfn, std::move(lrc)});
        }
      }
      result.Encode(response);
      return Status::Ok();
    }
    case kRliWildcardQuery: {
      NameQueryRequest req;
      s = NameQueryRequest::Decode(request, &req);
      if (!s.ok()) return s;
      if (!rli_relational_) {
        // Paper §5.4: wildcard searches on RLI contents "are not possible
        // when using Bloom filter compression".
        return Status::Unsupported("wildcard queries unsupported on a Bloom-filter RLI");
      }
      MappingListResponse result;
      s = rli_relational_->WildcardQuery(req.name, req.limit, &result.mappings);
      if (!s.ok()) return s;
      result.Encode(response);
      return Status::Ok();
    }
    case kRliLrcList: {
      StringListResponse result;
      if (rli_relational_) {
        s = rli_relational_->ListLrcs(&result.values);
        if (!s.ok()) return s;
      }
      if (rli_bloom_) {
        std::vector<std::string> from_bloom;
        s = rli_bloom_->ListLrcs(&from_bloom);
        if (!s.ok()) return s;
        MergeUnique(&result.values, from_bloom);
      }
      result.Encode(response);
      return Status::Ok();
    }
    default:
      return Status::Protocol("unhandled RLI opcode " + std::to_string(opcode));
  }
}

Status RlsServer::HandleSoftState(uint16_t opcode, const std::string& request) {
  Status s;
  const int64_t now_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                                 clock_->Now().time_since_epoch())
                                 .count();

  // Summarize->receive lag of this hop, and the trace that produced it
  // (the sender re-stamps the originating client's trace id).
  auto note_update = [&](int64_t sent_micros, bool count) {
    if (count) rli_updates_received_->Increment();
    if (sent_micros > 0 && now_micros >= sent_micros) {
      ss_receive_lag_->RecordMicros(static_cast<uint64_t>(now_micros - sent_micros));
    }
    const rlscommon::TraceContext trace = rlscommon::CurrentTrace();
    if (trace.valid()) {
      last_update_trace_id_.store(trace.trace_id, std::memory_order_relaxed);
    }
    // Stage stamp: everything since the last hop was soft-state ingest.
    rlscommon::StampHop("rli_ingest");
  };

  switch (opcode) {
    case kSsFullBegin: {
      FullUpdateBegin req;
      s = FullUpdateBegin::Decode(request, &req);
      if (!s.ok()) return s;
      if (!rli_relational_) {
        return Status::Unsupported("RLI accepts only Bloom updates (no database)");
      }
      note_update(req.sent_micros, /*count=*/false);
      ForwardToParents(opcode, request);
      return Status::Ok();
    }
    case kSsFullChunk: {
      FullUpdateChunk req;
      s = FullUpdateChunk::Decode(request, &req);
      if (!s.ok()) return s;
      if (!rli_relational_) {
        return Status::Unsupported("RLI accepts only Bloom updates (no database)");
      }
      s = rli_relational_->UpsertBatch(req.names, req.lrc_url, now_micros);
      if (!s.ok()) return s;
      rlscommon::StampHop("rli_ingest");
      ForwardToParents(opcode, request);
      return Status::Ok();
    }
    case kSsFullEnd: {
      FullUpdateEnd req;
      s = FullUpdateEnd::Decode(request, &req);
      if (!s.ok()) return s;
      note_update(0, /*count=*/true);
      ForwardToParents(opcode, request);
      return Status::Ok();
    }
    case kSsIncremental: {
      IncrementalUpdate req;
      s = IncrementalUpdate::Decode(request, &req);
      if (!s.ok()) return s;
      if (!rli_relational_) {
        return Status::Unsupported("RLI accepts only Bloom updates (no database)");
      }
      s = rli_relational_->UpsertBatch(req.added, req.lrc_url, now_micros);
      if (!s.ok()) return s;
      for (const std::string& lfn : req.removed) {
        s = rli_relational_->Remove(lfn, req.lrc_url);
        if (!s.ok()) return s;
      }
      note_update(req.sent_micros, /*count=*/true);
      ForwardToParents(opcode, request);
      return Status::Ok();
    }
    case kSsBloom: {
      BloomUpdate req;
      s = BloomUpdate::Decode(request, &req);
      if (!s.ok()) return s;
      if (!rli_bloom_) {
        return Status::Unsupported("RLI does not accept Bloom updates");
      }
      bloom::BloomFilter filter;
      s = bloom::BloomFilter::Deserialize(req.filter_bytes, &filter);
      if (!s.ok()) return s;
      rli_bloom_->StoreFilter(req.lrc_url, std::move(filter));
      note_update(req.sent_micros, /*count=*/true);
      ForwardToParents(opcode, request);
      return Status::Ok();
    }
    default:
      return Status::Protocol("unhandled soft-state opcode " + std::to_string(opcode));
  }
}

void RlsServer::ForwardToParents(uint16_t opcode, const std::string& request) {
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
    std::string response;
    Status s = client->Call(opcode, request, &response);
    if (!s.ok()) {
      RLS_WARN("rli") << config_.url << ": forward to " << target.address
                      << " failed: " << s.ToString();
      client.reset();  // reconnect next time
    }
  }
}

}  // namespace rls
