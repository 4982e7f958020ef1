#include "rls/update_manager.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "rls/client.h"

namespace rls {

using rlscommon::Status;

std::string_view UpdateModeName(UpdateMode mode) {
  switch (mode) {
    case UpdateMode::kNone: return "none";
    case UpdateMode::kFull: return "full";
    case UpdateMode::kImmediate: return "immediate";
    case UpdateMode::kBloom: return "bloom";
    case UpdateMode::kPartitioned: return "partitioned";
  }
  return "?";
}

UpdateManager::UpdateManager(net::Transport* network, LrcStore* store,
                             std::string lrc_url, UpdateConfig config,
                             obs::Registry* registry, rlscommon::Clock* clock)
    : network_(network),
      store_(store),
      lrc_url_(std::move(lrc_url)),
      config_(std::move(config)),
      clock_(clock),
      registry_(registry),
      metric_full_sent_(registry->GetCounter("ss_updates_sent_total", obs::Label("mode", "full"))),
      metric_incremental_sent_(
          registry->GetCounter("ss_updates_sent_total", obs::Label("mode", "incremental"))),
      metric_bloom_sent_(
          registry->GetCounter("ss_updates_sent_total", obs::Label("mode", "bloom"))),
      metric_names_sent_(registry->GetCounter("ss_names_sent_total")),
      metric_bytes_sent_(registry->GetCounter("ss_bytes_sent_total")),
      metric_bloom_bits_set_(registry->GetGauge("ss_bloom_bits_set")),
      metric_bloom_build_us_(registry->GetGauge("ss_bloom_build_us")),
      metric_update_duration_(registry->GetHistogram("ss_update_duration_us")),
      metric_send_failures_(registry->GetCounter("ss_send_failures_total")),
      metric_target_unhealthy_(registry->GetCounter("ss_target_unhealthy_total")),
      metric_target_recovered_(registry->GetCounter("ss_target_recovered_total")),
      metric_full_resends_(registry->GetCounter("ss_full_resends_total")),
      metric_unhealthy_targets_(registry->GetGauge("ss_unhealthy_targets")) {
  for (const UpdateTarget& target : config_.targets) {
    targets_.push_back(std::make_shared<TargetState>(target));
  }
}

UpdateManager::~UpdateManager() { Stop(); }

void UpdateManager::Start() {
  std::lock_guard<std::mutex> lock(scheduler_mu_);
  if (running_ || config_.mode == UpdateMode::kNone) return;
  running_ = true;
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

void UpdateManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(scheduler_mu_);
    if (!running_) return;
    running_ = false;
  }
  scheduler_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

std::vector<UpdateManager::TargetPtr> UpdateManager::SnapshotTargets() const {
  std::lock_guard<std::mutex> lock(targets_mu_);
  return targets_;
}

std::vector<TargetStatus> UpdateManager::TargetStatuses() const {
  const rlscommon::TimePoint now = clock_->Now();
  std::vector<TargetStatus> out;
  for (const TargetPtr& state : SnapshotTargets()) {
    std::lock_guard<std::mutex> lock(state->mu);
    const double since_last =
        state->ever_updated ? std::chrono::duration<double>(now - state->last_update).count()
                            : -1;
    out.push_back(TargetStatus{state->target.address, state->updates_sent, since_last,
                               state->healthy, state->consecutive_failures,
                               state->full_resends});
  }
  return out;
}

void UpdateManager::RecordSendSuccess(TargetState* state, bool complete_update) {
  bool recovered = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->updates_sent;
    state->last_update = clock_->Now();
    state->ever_updated = true;
    state->consecutive_failures = 0;
    state->backoff = {};
    state->backoff_until = {};
    if (complete_update) state->needs_full_resend = false;
    if (!state->healthy) {
      state->healthy = true;
      recovered = true;
    }
  }
  if (recovered) {
    RLS_INFO("update") << lrc_url_ << " target " << state->target.address
                       << " recovered";
    metric_target_recovered_->Increment();
    metric_unhealthy_targets_->Add(-1);
  }
}

void UpdateManager::RecordSendFailure(TargetState* state) {
  bool went_unhealthy = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->consecutive_failures;
    // Whatever this send carried is lost; only a complete update can
    // reconverge the target.
    state->needs_full_resend = true;
    state->backoff =
        state->backoff.count() == 0
            ? std::chrono::duration_cast<rlscommon::Duration>(
                  config_.target_backoff_initial)
            : std::min(state->backoff * 2,
                       std::chrono::duration_cast<rlscommon::Duration>(
                           config_.target_backoff_max));
    state->backoff_until = clock_->Now() + state->backoff;
    if (state->healthy &&
        state->consecutive_failures >= config_.unhealthy_after_failures) {
      state->healthy = false;
      went_unhealthy = true;
    }
  }
  // The recovery resend this failure owes is a new deadline.
  WakeScheduler();
  metric_send_failures_->Increment();
  if (went_unhealthy) {
    RLS_WARN("update") << lrc_url_ << " target " << state->target.address
                       << " marked unhealthy";
    metric_target_unhealthy_->Increment();
    metric_unhealthy_targets_->Add(1);
  }
}

void UpdateManager::OnMappingChange(const std::string& lfn, bool added) {
  if (config_.mode == UpdateMode::kNone) return;

  if (config_.mode == UpdateMode::kBloom) {
    std::lock_guard<std::mutex> lock(bloom_mu_);
    if (bloom_built_) {
      // "subsequent updates to LRC mappings can be reflected by setting
      // or unsetting the corresponding bits" (paper §5.5) — sound here
      // because the LRC keeps counters.
      if (added) {
        counting_.Insert(lfn);
      } else {
        counting_.Remove(lfn);
      }
    }
    return;
  }

  bool replan = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const std::size_t before = pending_count_;
    int& state = pending_[lfn];
    state += added ? 1 : -1;
    if (state == 0) {
      pending_.erase(lfn);
      if (pending_count_ > 0) --pending_count_;
    } else {
      ++pending_count_;
    }
    // Remember the trace of the mutation that opened this batch so an
    // async flush can re-stamp it on the outgoing update.
    const rlscommon::TraceContext trace = rlscommon::CurrentTrace();
    if (trace.valid() && !pending_trace_.valid()) pending_trace_ = trace;
    // Opening a batch or filling it moves the flush deadline.
    replan = config_.mode == UpdateMode::kImmediate &&
             ((before == 0 && pending_count_ > 0) ||
              (before < config_.immediate_max_pending &&
               pending_count_ >= config_.immediate_max_pending));
  }
  if (replan) WakeScheduler();
}

void UpdateManager::AddTarget(UpdateTarget target) {
  std::lock_guard<std::mutex> lock(targets_mu_);
  for (const TargetPtr& state : targets_) {
    if (state->target.address == target.address) return;
  }
  targets_.push_back(std::make_shared<TargetState>(std::move(target)));
}

void UpdateManager::RemoveTarget(const std::string& address) {
  TargetPtr removed;
  {
    std::lock_guard<std::mutex> lock(targets_mu_);
    for (auto it = targets_.begin(); it != targets_.end(); ++it) {
      if ((*it)->target.address == address) {
        removed = *it;
        targets_.erase(it);
        break;
      }
    }
  }
  if (removed) {
    std::lock_guard<std::mutex> lock(removed->mu);
    if (!removed->healthy) metric_unhealthy_targets_->Add(-1);
  }
}

Status UpdateManager::ClientFor(TargetState* state, net::RpcClient** out) {
  if (!state->client) {
    net::ClientOptions options;
    options.credential = config_.credential;
    options.link = state->target.link;
    options.identity = lrc_url_;
    options.call_timeout = config_.rpc_timeout;
    options.retry = config_.rpc_retry;
    options.retry_seed = config_.retry_seed;
    options.metrics = registry_;
    Status s = net::RpcClient::Connect(network_, state->target.address, options,
                                       &state->client);
    if (!s.ok()) return s;
  }
  *out = state->client.get();
  return Status::Ok();
}

Status UpdateManager::SendCompleteUpdate(TargetState* state, bool recovery) {
  Status s;
  {
    std::lock_guard<std::mutex> lock(state->send_mu);
    switch (config_.mode) {
      case UpdateMode::kNone:
        return Status::InvalidArgument("LRC has no update mode configured");
      case UpdateMode::kBloom:
        s = SendBloom(state);
        break;
      case UpdateMode::kPartitioned:
        s = SendFullUncompressed(state, state->target.patterns.empty()
                                            ? nullptr
                                            : &state->target.patterns);
        break;
      case UpdateMode::kFull:
      case UpdateMode::kImmediate:
        s = SendFullUncompressed(state, nullptr);
        break;
    }
  }
  if (s.ok()) {
    RecordSendSuccess(state, /*complete_update=*/true);
    if (recovery) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->full_resends;
      }
      metric_full_resends_->Increment();
    }
  } else {
    RecordSendFailure(state);
  }
  return s;
}

Status UpdateManager::ForceFullUpdate() {
  if (config_.mode == UpdateMode::kNone) {
    return Status::InvalidArgument("LRC has no update mode configured");
  }
  rlscommon::Stopwatch watch(clock_);
  Status status = Status::Ok();
  for (const TargetPtr& state : SnapshotTargets()) {
    Status s = SendCompleteUpdate(state.get(), /*recovery=*/false);
    if (!s.ok() && status.ok()) status = s;
  }
  metric_update_duration_->Record(watch.Elapsed());
  // A full update supersedes any pending incremental state.
  if (config_.mode != UpdateMode::kBloom) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.clear();
    pending_count_ = 0;
  }
  return status;
}

Status UpdateManager::FlushImmediate() {
  if (config_.mode == UpdateMode::kBloom) {
    // Bloom mode's "incremental" flush is simply resending the filter.
    return ForceFullUpdate();
  }
  // Held from taking the batch through its sends, so a flush that finds
  // the batch already taken by another waits for that batch to land.
  std::lock_guard<std::mutex> flush(flush_mu_);
  std::vector<std::string> added, removed;
  rlscommon::TraceContext batch_trace;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (const auto& [lfn, state] : pending_) {
      if (state > 0) {
        added.push_back(lfn);
      } else if (state < 0) {
        removed.push_back(lfn);
      }
    }
    pending_.clear();
    pending_count_ = 0;
    batch_trace = pending_trace_;
    pending_trace_ = {};
  }
  if (added.empty() && removed.empty()) return Status::Ok();

  // When flushed from the scheduler thread there is no ambient trace;
  // restore the trace of the mutation that opened the batch so the
  // update hop is attributable to the client operation.
  std::optional<obs::ScopedTrace> scope;
  if (!rlscommon::CurrentTrace().valid() && batch_trace.valid()) {
    scope.emplace(batch_trace);
  }

  Status status = Status::Ok();
  for (const TargetPtr& state : SnapshotTargets()) {
    {
      // An unhealthy or stale target is skipped — its RLI can only
      // reconverge from the complete resend the recovery pass owes it,
      // so spending a timeout on a doomed incremental just slows the
      // healthy targets down.
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->healthy || state->needs_full_resend) continue;
    }
    std::vector<std::string> target_added = added;
    std::vector<std::string> target_removed = removed;
    if (!state->target.patterns.empty()) {
      auto matches = [&](const std::string& name) {
        for (const std::string& pattern : state->target.patterns) {
          if (rlscommon::WildcardMatch(pattern, name)) return true;
        }
        return false;
      };
      std::erase_if(target_added, [&](const std::string& n) { return !matches(n); });
      std::erase_if(target_removed, [&](const std::string& n) { return !matches(n); });
      if (target_added.empty() && target_removed.empty()) continue;
    }
    Status s;
    {
      std::lock_guard<std::mutex> lock(state->send_mu);
      s = SendIncremental(state.get(), target_added, target_removed);
    }
    if (s.ok()) {
      RecordSendSuccess(state.get(), /*complete_update=*/false);
    } else {
      RecordSendFailure(state.get());
      if (status.ok()) status = s;
    }
  }
  return status;
}

Status UpdateManager::RebuildBloomFilter() {
  rlscommon::Stopwatch watch(clock_);
  uint64_t expected = config_.bloom_expected_entries;
  if (expected == 0) expected = std::max<uint64_t>(store_->LogicalNameCount(), 1024);
  bloom::CountingBloomFilter fresh =
      bloom::CountingBloomFilter::ForEntries(expected);
  Status s = store_->ForEachLogicalName(
      config_.chunk_size, [&](const std::vector<std::string>& names) {
        for (const std::string& name : names) fresh.Insert(name);
      });
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lock(bloom_mu_);
    counting_ = std::move(fresh);
    bloom_built_ = true;
  }
  metric_bloom_build_us_->Set(
      std::chrono::duration_cast<std::chrono::microseconds>(watch.Elapsed()).count());
  return Status::Ok();
}

Status UpdateManager::SendFullUncompressed(TargetState* state,
                                           const std::vector<std::string>* patterns) {
  net::RpcClient* client = nullptr;
  Status s = ClientFor(state, &client);
  if (!s.ok()) return s;

  const uint64_t update_id = next_update_id_.fetch_add(1);
  const uint64_t total = store_->LogicalNameCount();
  const uint64_t bytes_before = client->bytes_sent();

  obs::Span span("update", "full_update");
  s = Invoke<kSsFullBegin>(*client, {lrc_url_, update_id, total, clock_->NowMicros()});
  if (!s.ok()) return s;
  span.Hop("begin");

  uint64_t names_sent = 0;
  Status send_status = Status::Ok();
  s = store_->ForEachLogicalName(
      config_.chunk_size, [&](const std::vector<std::string>& names) {
        if (!send_status.ok()) return;
        FullUpdateChunk chunk;
        chunk.lrc_url = lrc_url_;
        chunk.update_id = update_id;
        if (patterns) {
          for (const std::string& name : names) {
            for (const std::string& pattern : *patterns) {
              if (rlscommon::WildcardMatch(pattern, name)) {
                chunk.names.push_back(name);
                break;
              }
            }
          }
          if (chunk.names.empty()) return;
        } else {
          chunk.names = names;
        }
        send_status = Invoke<kSsFullChunk>(*client, chunk);
        names_sent += chunk.names.size();
      });
  if (!s.ok()) return s;
  if (!send_status.ok()) return send_status;
  span.Hop("chunks");

  s = Invoke<kSsFullEnd>(*client, {lrc_url_, update_id});
  if (!s.ok()) return s;

  metric_full_sent_->Increment();
  metric_names_sent_->Increment(names_sent);
  metric_bytes_sent_->Increment(client->bytes_sent() - bytes_before);
  return Status::Ok();
}

Status UpdateManager::SendBloom(TargetState* state) {
  bool needs_build;
  {
    std::lock_guard<std::mutex> lock(bloom_mu_);
    needs_build = !bloom_built_;
  }
  if (needs_build) {
    // The first update pays the one-time filter generation cost the paper
    // reports in Table 3 column 3.
    Status s = RebuildBloomFilter();
    if (!s.ok()) return s;
  }

  obs::Span span("update", "bloom_update");
  BloomUpdate update;
  update.lrc_url = lrc_url_;
  update.sent_micros = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> lock(bloom_mu_);
    bloom::BloomFilter snapshot = counting_.ToBloomFilter();
    snapshot.Serialize(&update.filter_bytes);
    metric_bloom_bits_set_->Set(static_cast<int64_t>(snapshot.CountSetBits()));
  }

  net::RpcClient* client = nullptr;
  Status s = ClientFor(state, &client);
  if (!s.ok()) return s;
  span.Hop("serialize");
  const uint64_t bytes_before = client->bytes_sent();
  s = Invoke<kSsBloom>(*client, update);
  if (!s.ok()) return s;

  metric_bloom_sent_->Increment();
  metric_bytes_sent_->Increment(client->bytes_sent() - bytes_before);
  return Status::Ok();
}

Status UpdateManager::SendIncremental(TargetState* state,
                                      const std::vector<std::string>& added,
                                      const std::vector<std::string>& removed) {
  net::RpcClient* client = nullptr;
  Status s = ClientFor(state, &client);
  if (!s.ok()) return s;
  obs::Span span("update", "incremental_update");
  IncrementalUpdate update;
  update.lrc_url = lrc_url_;
  update.added = added;
  update.removed = removed;
  update.sent_micros = clock_->NowMicros();
  const uint64_t bytes_before = client->bytes_sent();
  s = Invoke<kSsIncremental>(*client, update);
  if (!s.ok()) return s;
  metric_incremental_sent_->Increment();
  metric_names_sent_->Increment(added.size() + removed.size());
  metric_bytes_sent_->Increment(client->bytes_sent() - bytes_before);
  return Status::Ok();
}

UpdateStats UpdateManager::stats() const {
  return UpdateStats{
      .full_updates_sent = metric_full_sent_->Value(),
      .incremental_updates_sent = metric_incremental_sent_->Value(),
      .bloom_updates_sent = metric_bloom_sent_->Value(),
      .names_sent = metric_names_sent_->Value(),
      .bytes_sent = metric_bytes_sent_->Value(),
      .send_failures = metric_send_failures_->Value(),
      .full_resends = metric_full_resends_->Value(),
      .last_bloom_generate_seconds = metric_bloom_build_us_->Value() / 1e6,
  };
}

rlscommon::TimePoint UpdateManager::RecoveryPass() {
  const rlscommon::TimePoint now = clock_->Now();
  rlscommon::TimePoint next = rlscommon::TimePoint::max();
  for (const TargetPtr& state : SnapshotTargets()) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->healthy && !state->needs_full_resend) continue;
      if (now < state->backoff_until) {
        next = std::min(next, state->backoff_until);
        continue;
      }
    }
    Status s = SendCompleteUpdate(state.get(), /*recovery=*/true);
    if (!s.ok()) {
      RLS_WARN("update") << lrc_url_ << " recovery resend to "
                         << state->target.address << " failed: " << s.ToString();
    }
  }
  return next;
}

rlscommon::TimePoint UpdateManager::ImmediateDue(rlscommon::TimePoint last_flush) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  if (pending_count_ == 0) return rlscommon::TimePoint::max();
  if (pending_count_ >= config_.immediate_max_pending) return rlscommon::TimePoint::min();
  return last_flush + config_.immediate_interval;
}

void UpdateManager::WakeScheduler() {
  {
    std::lock_guard<std::mutex> lock(scheduler_mu_);
    wake_ = true;
  }
  scheduler_cv_.notify_all();
}

void UpdateManager::SchedulerLoop() {
  const bool periodic = config_.full_interval.count() > 0;
  const bool immediate = config_.mode == UpdateMode::kImmediate;
  rlscommon::TimePoint last_full = clock_->Now();
  rlscommon::TimePoint last_immediate = last_full;
  std::unique_lock<std::mutex> lock(scheduler_mu_);
  while (running_) {
    wake_ = false;
    lock.unlock();
    const rlscommon::TimePoint now = clock_->Now();
    if (periodic && now >= last_full + config_.full_interval) {
      last_full = now;
      Status s = ForceFullUpdate();
      if (!s.ok()) {
        RLS_WARN("update") << lrc_url_ << " full update failed: " << s.ToString();
      }
    }
    if (immediate && now >= ImmediateDue(last_immediate)) {
      last_immediate = now;
      Status s = FlushImmediate();
      if (!s.ok()) {
        RLS_WARN("update") << lrc_url_ << " incremental update failed: " << s.ToString();
      }
    }
    // Targets that failed a send owe the RLI a complete resend once
    // their backoff expires — the paper's reconvergence-after-restart
    // behavior, with no manual intervention.
    rlscommon::TimePoint next = RecoveryPass();
    if (periodic) next = std::min(next, last_full + config_.full_interval);
    if (immediate) next = std::min(next, ImmediateDue(last_immediate));
    lock.lock();
    clock_->WaitUntil(lock, scheduler_cv_, next, [this] { return !running_ || wake_; });
  }
}

}  // namespace rls
