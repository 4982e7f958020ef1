#include "net/rpc.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "net/serialize.h"
#include "obs/trace.h"

namespace net {

using rlscommon::ErrorCode;
using rlscommon::Status;

void EncodeError(const Status& status, std::string* payload) {
  Writer w(payload);
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  w.U32(static_cast<uint32_t>(status.retry_after().count()));
}

Status DecodeError(std::string_view payload) {
  Reader r(payload);
  uint8_t code = 0;
  std::string message;
  // An error frame must carry an error: code 0 (OK) or a code this
  // build does not know would turn a failure into a success or an
  // unclassifiable status.
  if (!r.U8(&code) || code == 0 || code > static_cast<uint8_t>(ErrorCode::kLast) ||
      !r.Str(&message)) {
    return Status::Protocol("malformed error response");
  }
  Status status(static_cast<ErrorCode>(code), std::move(message));
  // Optional trailer: the server's retry-after hint (overload sheds).
  uint32_t retry_after_ms = 0;
  if (r.U32(&retry_after_ms) && retry_after_ms > 0) {
    status.WithRetryAfter(std::chrono::milliseconds(retry_after_ms));
  }
  return status;
}

RpcServer::RpcServer(Transport* network, std::string address,
                     ServerOptions options, RpcHandler handler)
    : network_(network),
      address_(std::move(address)),
      options_(std::move(options)),
      handler_(std::move(handler)) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  if (options_.metrics) {
    shed_queue_full_ = options_.metrics->GetCounter(
        "rpc_shed_total", obs::Label("reason", "queue_full"));
  }
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    free_slots_ = options_.workers;
    slots_closed_ = false;
  }
  // Listen first, so a failed start leaves no callback capturing `this`
  // behind.
  Status s = network_->Listen(address_, [this](ConnectionPtr conn) {
    std::shared_ptr<Connection> shared(conn.release());
    std::vector<std::thread> finished;
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished.swap(finished_);
      if (!stopping_.load()) {
        const uint64_t id = next_conn_id_++;
        connections_.emplace(id, shared);
        threads_.emplace(id, std::thread([this, shared, id] { ServeConnection(shared, id); }));
        accepted = true;
      }
    }
    for (std::thread& t : finished) t.join();
    if (!accepted) shared->Close();
  });
  if (!s.ok()) return s;
  started_ = true;
  if (options_.metrics) {
    options_.metrics->RegisterCallback(
        "rpc_active_connections", "",
        [this] { return static_cast<double>(active_connections()); });
    if (options_.workers > 0) {
      options_.metrics->RegisterCallback(
          "rpc_queue_depth", obs::Label("lane", "normal"), [this] {
            std::lock_guard<std::mutex> lock(slot_mu_);
            return static_cast<double>(waiters_.size());
          });
    }
  }
  return Status::Ok();
}

void RpcServer::Stop() {
  if (!started_) return;
  if (options_.metrics) {
    options_.metrics->UnregisterCallback("rpc_active_connections", "");
    if (options_.workers > 0) {
      options_.metrics->UnregisterCallback("rpc_queue_depth",
                                           obs::Label("lane", "normal"));
    }
  }
  stopping_.store(true);
  network_->StopListening(address_);
  // Readers waiting for a slot are not in Recv, so closing their
  // connections would not wake them: end their waits first.
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    slots_closed_ = true;
    for (SlotWaiter* waiter : waiters_) waiter->cv.notify_one();
    waiters_.clear();
  }
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : connections_) conns.push_back(conn);
    for (auto& [id, thread] : threads_) threads.push_back(std::move(thread));
    threads_.clear();
    for (std::thread& thread : finished_) threads.push_back(std::move(thread));
    finished_.clear();
  }
  // Closed outside mu_: an in-process close runs the client's close
  // notice, and with it the client's callbacks, on this thread.
  for (const auto& conn : conns) conn->Close();
  for (std::thread& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.clear();
  }
  started_ = false;
  stopping_.store(false);
}

std::size_t RpcServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

RpcServer::OpMetrics* RpcServer::MetricsFor(uint16_t opcode) {
  if (!options_.metrics) return nullptr;
  // Real opcodes are all < 256; anything larger takes the locked path
  // every time rather than growing the cache.
  const bool cacheable = opcode < kOpcodeCacheSize;
  if (cacheable) {
    OpMetrics* cached = op_metrics_[opcode].load(std::memory_order_acquire);
    if (cached) return cached;
  }
  const std::string method = options_.opcode_name ? options_.opcode_name(opcode)
                                                  : std::to_string(opcode);
  std::lock_guard<std::mutex> lock(op_metrics_mu_);
  // One entry per label: opcodes that render alike (e.g. every unknown
  // opcode) share their instruments instead of minting new ones.
  auto [it, fresh] = op_metrics_by_method_.try_emplace(method);
  OpMetrics* metrics = &it->second;
  if (fresh) {
    const std::string labels = obs::Label("method", method);
    metrics->method = method;
    metrics->requests = options_.metrics->GetCounter("rpc_requests_total", labels);
    metrics->errors = options_.metrics->GetCounter("rpc_errors_total", labels);
    metrics->latency =
        options_.metrics->GetHistogram("rpc_request_latency_us", labels);
  }
  if (cacheable) op_metrics_[opcode].store(metrics, std::memory_order_release);
  return metrics;
}

obs::Histogram* RpcServer::StageHistogram(OpMetrics* metrics,
                                          std::string_view stage) {
  // Slow path: first request ever to report this (method, stage) pair.
  // Publish a copied table so concurrent readers never need the lock.
  std::lock_guard<std::mutex> lock(metrics->stage_mu);
  const OpMetrics::StageTable* current =
      metrics->stage_table.load(std::memory_order_relaxed);
  if (current) {
    for (const auto& [name, hist] : current->entries) {
      if (name == stage) return hist;
    }
  }
  const std::string labels = obs::Label("method", metrics->method) + "," +
                             obs::Label("stage", std::string(stage));
  obs::Histogram* hist =
      options_.metrics->GetHistogram("rpc_stage_latency_us", labels);
  auto next = std::make_unique<OpMetrics::StageTable>();
  if (current) next->entries = current->entries;
  next->entries.emplace_back(std::string(stage), hist);
  metrics->stage_table.store(next.get(), std::memory_order_release);
  metrics->stage_versions.push_back(std::move(next));
  return hist;
}

void RpcServer::RecordStageLatencies(OpMetrics* metrics, const obs::Span& span,
                                     uint64_t trace_id) {
  // Lock-free on the steady-state path: every request records the same
  // handful of stages per method, so after warm-up the published table
  // answers each lookup with a short linear scan. Histograms themselves
  // are atomic-based and need no external lock.
  const OpMetrics::StageTable* table =
      metrics->stage_table.load(std::memory_order_acquire);
  uint64_t prev_us = 0;
  for (const auto& [what, at] : span.hops()) {
    const int64_t at_signed =
        std::chrono::duration_cast<std::chrono::microseconds>(at).count();
    const uint64_t at_us = at_signed > 0 ? static_cast<uint64_t>(at_signed) : 0;
    if (at_us < prev_us) continue;  // out-of-order ambient stamp; skip
    obs::Histogram* hist = nullptr;
    if (table) {
      for (const auto& [name, cached] : table->entries) {
        if (name == what) {
          hist = cached;
          break;
        }
      }
    }
    if (!hist) {
      hist = StageHistogram(metrics, what);
      table = metrics->stage_table.load(std::memory_order_acquire);
    }
    hist->RecordMicros(at_us - prev_us);
    hist->OfferExemplar(at_us - prev_us, trace_id);
    prev_us = at_us;
  }
}

void RpcServer::ExecuteRequest(const std::shared_ptr<Connection>& conn,
                               const gsi::AuthContext& context, Message msg,
                               std::chrono::steady_clock::time_point recv_time,
                               std::chrono::steady_clock::time_point admit_time,
                               bool slotted) {
  Message reply;
  reply.request_id = msg.request_id;
  reply.opcode = msg.opcode;
  reply.flags = Message::kFlagResponse;
  reply.trace_id = msg.trace_id;
  reply.span_id = msg.span_id;

  OpMetrics* metrics = MetricsFor(msg.opcode);
  // Make the caller's trace ambient for the handler (and anything it
  // triggers on this thread, e.g. synchronous soft-state sends).
  obs::ScopedTrace trace(obs::TraceContext{msg.trace_id, msg.span_id});

  // The request span decomposes the lifecycle into stages: [recv ->
  // admission -> queue_wait -> (handler, which stamps auth/db_txn/
  // wal_sync/rli_ingest hops ambiently) -> handler residue -> reply].
  // Only built while tracing is active; the always-on cost of the
  // subsystem is the two clock stamps taken in ServeConnection.
  std::optional<obs::Span> span;
  if (obs::TracingActive()) {
    std::string fallback;
    if (!metrics) {
      fallback = options_.opcode_name ? options_.opcode_name(msg.opcode)
                                      : std::to_string(msg.opcode);
    }
    span.emplace("rpc", metrics ? std::string_view(metrics->method)
                                : std::string_view(fallback),
                 recv_time);
    span->Hop("admission", admit_time);
    span->Hop("queue_wait");  // admit -> slot granted (no slot taken: ~0)
  }

  rlscommon::Stopwatch timer;
  Status status = handler_(context, msg.opcode, msg.payload, &reply.payload);
  if (slotted) ReleaseSlot();
  if (span) span->Hop("handler");  // handler time not claimed by inner hops
  const auto handler_elapsed = timer.Elapsed();
  if (metrics) {
    metrics->requests->Increment();
    metrics->latency->Record(handler_elapsed);
    metrics->latency->OfferExemplar(
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                  handler_elapsed)
                                  .count()),
        msg.trace_id);
    if (!status.ok()) metrics->errors->Increment();
  }
  if (!status.ok()) {
    reply.flags |= Message::kFlagError;
    reply.payload.clear();
    EncodeError(status, &reply.payload);
  }
  // A failed reply send means the peer is gone; nothing more to do.
  const Status send_status = conn->Send(std::move(reply));
  (void)send_status;
  if (span) {
    span->End("reply");
    if (metrics) RecordStageLatencies(metrics, *span, msg.trace_id);
    span.reset();  // completes the span: recorder entry + slow-WARN check
  }
}

Status RpcServer::AcquireSlot() {
  std::unique_lock<std::mutex> lock(slot_mu_);
  if (slots_closed_) return Status::Unavailable("server shutting down");
  // A free slot means nobody waits: ReleaseSlot hands a slot to a
  // waiter before it frees one.
  if (free_slots_ > 0) {
    --free_slots_;
    return Status::Ok();
  }
  if (options_.queue_depth > 0 && waiters_.size() >= options_.queue_depth) {
    if (shed_queue_full_) shed_queue_full_->Increment();
    return Status::Unavailable("server overloaded: request queue full")
        .WithRetryAfter(options_.shed_retry_after);
  }
  SlotWaiter self;
  waiters_.push_back(&self);
  self.cv.wait(lock, [&] { return self.granted || slots_closed_; });
  // Stop() took this waiter off the line without a slot.
  if (!self.granted) return Status::Unavailable("server shutting down");
  return Status::Ok();
}

void RpcServer::ReleaseSlot() {
  std::lock_guard<std::mutex> lock(slot_mu_);
  if (waiters_.empty()) {
    ++free_slots_;
    return;
  }
  // The slot passes to the oldest waiter without becoming free. Notified
  // under the lock: the waiter's condition variable lives on its stack.
  SlotWaiter* next = waiters_.front();
  waiters_.pop_front();
  next->granted = true;
  next->cv.notify_one();
}

void RpcServer::ServeConnection(std::shared_ptr<Connection> conn, uint64_t id) {
  gsi::AuthContext context;
  bool authenticated = false;
  Message msg;
  while (conn->Recv(&msg).ok()) {
    // Transport-receive stamp: the request span starts here, so the wait
    // for a slot is charged to the request. With tracing off these two
    // stamps (recv here, admit below) are the subsystem's whole
    // per-request cost.
    const auto recv_time = std::chrono::steady_clock::now();
    Status status;
    bool priority = false;
    if (msg.opcode == kOpcodeAuth) {
      gsi::Credential cred{msg.payload};
      status = options_.auth.Authenticate(cred, &context);
      authenticated = status.ok();
    } else if (!authenticated) {
      status = Status::Unauthenticated("handshake required before requests");
    } else {
      if (options_.admission) {
        AdmitDecision decision = options_.admission(context, msg.opcode);
        status = std::move(decision.status);
        priority = decision.priority;
      }
      if (status.ok()) {
        const auto admit_time = std::chrono::steady_clock::now();
        // The normal lane takes an execution slot; the priority lane
        // never waits for one.
        const bool slotted = options_.workers > 0 && !priority;
        if (slotted) status = AcquireSlot();
        if (status.ok()) {
          ExecuteRequest(conn, context, std::move(msg), recv_time, admit_time,
                         slotted);
          continue;
        }
      }
    }
    // Only handshake results and rejections reach here.
    Message reply;
    reply.request_id = msg.request_id;
    reply.opcode = msg.opcode;
    reply.flags = Message::kFlagResponse;
    reply.trace_id = msg.trace_id;
    reply.span_id = msg.span_id;
    if (!status.ok()) {
      reply.flags |= Message::kFlagError;
      EncodeError(status, &reply.payload);
    }
    if (!conn->Send(std::move(reply)).ok()) break;
  }
  conn->Close();
  std::lock_guard<std::mutex> lock(mu_);
  connections_.erase(id);
  auto self = threads_.find(id);
  if (self == threads_.end()) return;  // Stop() took it and joins it
  finished_.push_back(std::move(self->second));
  threads_.erase(self);
}

namespace {

/// Completes one call exactly once: latches the result, wakes waiters,
/// fires callbacks (outside the state lock).
void Complete(const std::shared_ptr<detail::CallState>& state, Status status,
              std::string response) {
  std::vector<std::function<void(const Status&, const std::string&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done) return;
    state->done = true;
    state->status = std::move(status);
    state->response = std::move(response);
    callbacks.swap(state->callbacks);
  }
  state->cv.notify_all();
  for (auto& fn : callbacks) fn(state->status, state->response);
}

}  // namespace

bool Future::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

Status Future::Wait(std::string* response) {
  if (!state_) return Status::Internal("wait on an invalid future");
  std::unique_lock<std::mutex> lock(state_->mu);
  if (state_->has_deadline) {
    if (!state_->cv.wait_until(lock, state_->deadline,
                               [&] { return state_->done; })) {
      return Status::Timeout("rpc deadline exceeded calling " + state_->target);
    }
  } else {
    state_->cv.wait(lock, [&] { return state_->done; });
  }
  if (state_->status.ok() && response) *response = state_->response;
  return state_->status;
}

void Future::Then(
    std::function<void(const Status&, const std::string&)> fn) {
  if (!state_) return;
  bool fire_now = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->done) {
      fire_now = true;
    } else {
      state_->callbacks.push_back(std::move(fn));
    }
  }
  if (fire_now) fn(state_->status, state_->response);
}

Status RpcClient::Connect(Transport* network, const std::string& address,
                          const ClientOptions& options,
                          std::unique_ptr<RpcClient>* out) {
  std::unique_ptr<RpcClient> client(
      new RpcClient(network, address, options));
  // Run the handshake through Call() so connect failures get the same
  // retry/backoff treatment as any other transient transport error.
  std::string response;
  Status s = client->Call(kOpcodeAuth, options.credential.dn, &response);
  if (!s.ok()) return s;
  *out = std::move(client);
  return Status::Ok();
}

namespace detail {

/// Admits the deliveries of a client's live epoch and counts the ones
/// running, so Close() can wait for them. Each receiver holds a share,
/// so a late delivery that outlives the client is still dropped safely.
struct DeliveryGate {
  std::mutex mu;
  std::condition_variable idle;
  uint64_t live_epoch = 0;  // 0 = none
  int running = 0;
};

}  // namespace detail

RpcClient::RpcClient(Transport* network, std::string address,
                     ClientOptions options)
    : network_(network),
      address_(std::move(address)),
      options_(std::move(options)),
      jitter_rng_(options_.retry_seed),
      gate_(std::make_shared<detail::DeliveryGate>()),
      next_request_id_(options_.first_request_id) {}

RpcClient::~RpcClient() {
  {
    // A callback that Close() runs may issue a follow-up call; it must
    // not open a connection whose replies would reach a freed client.
    std::lock_guard<std::mutex> lock(mu_);
    destroying_ = true;
  }
  Close();
}

void RpcClient::Close() {
  Link link;
  {
    std::lock_guard<std::mutex> lock(mu_);
    link = DetachLocked();
  }
  Retire(std::move(link));
  // A delivery admitted before the epoch retired may still be running a
  // callback on another thread (in-process: the server's).
  {
    std::unique_lock<std::mutex> lock(gate_->mu);
    gate_->idle.wait(lock, [this] { return gate_->running == 0; });
  }
  // Receivers that retired their own link have left their callbacks by
  // now; reap them.
  std::vector<std::thread> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parked.swap(parked_);
  }
  for (std::thread& receiver : parked) receiver.join();
}

uint64_t RpcClient::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_sent_prior_ + (link_.conn ? link_.conn->bytes_sent() : 0);
}

RpcClient::Link RpcClient::DetachLocked() {
  if (link_.conn) bytes_sent_prior_ += link_.conn->bytes_sent();
  return std::exchange(link_, Link{});
}

void RpcClient::Retire(Link link) {
  if (!link.conn) return;
  {
    std::lock_guard<std::mutex> lock(gate_->mu);
    if (gate_->live_epoch == link.epoch) gate_->live_epoch = 0;
  }
  link.conn->Close();
  if (link.receiver.joinable()) {
    if (link.receiver.get_id() != std::this_thread::get_id()) {
      link.receiver.join();
    } else {
      // A callback on this receiver thread is reconnecting. The thread
      // ends once the callback returns; Close() joins it.
      std::lock_guard<std::mutex> lock(mu_);
      parked_.push_back(std::move(link.receiver));
    }
  }
  FailPendingForEpoch(link.epoch);
}

uint32_t RpcClient::NextRequestIdLocked() {
  uint32_t id = next_request_id_++;
  if (id == 0) id = next_request_id_++;  // skip 0 on wrap
  return id;
}

bool RpcClient::AddPending(uint64_t epoch,
                           std::shared_ptr<detail::CallState> state,
                           uint32_t* request_id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  // Once an epoch's calls are failed, a call added to it would wait for
  // a reply that cannot come.
  if (epoch <= failed_through_) return false;
  *request_id = NextRequestIdLocked();
  pending_.emplace(*request_id, PendingCall{epoch, std::move(state)});
  return true;
}

Status RpcClient::ConnectionClosed() const {
  return Status::Unavailable("connection closed to " + address_);
}

void RpcClient::FailPendingForEpoch(uint64_t epoch) {
  std::vector<std::shared_ptr<detail::CallState>> failed;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    failed_through_ = std::max(failed_through_, epoch);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.epoch == epoch) {
        failed.push_back(std::move(it->second.state));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (failed.empty()) return;
  const Status closed = ConnectionClosed();
  for (auto& state : failed) Complete(state, closed, "");
}

Receiver RpcClient::ReceiverFor(uint64_t epoch) {
  // Runs `deliver` only while `epoch` is live, counted so Close() can
  // wait for it.
  auto admit = [gate = gate_, epoch](auto&& deliver) {
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      if (gate->live_epoch != epoch) return;  // retired: drop
      ++gate->running;
    }
    deliver();
    std::lock_guard<std::mutex> lock(gate->mu);
    if (--gate->running == 0) gate->idle.notify_all();
  };
  return Receiver{
      [this, admit, epoch](Message msg) {
        admit([&] { OnReply(epoch, std::move(msg)); });
      },
      [this, admit, epoch] { admit([&] { FailPendingForEpoch(epoch); }); }};
}

void RpcClient::OnReply(uint64_t epoch, Message msg) {
  if (!msg.is_response()) return;
  std::shared_ptr<detail::CallState> state;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(msg.request_id);
    // Only complete calls issued on this connection: a response
    // surfacing from a retired epoch must not complete a newer call
    // that happens to reuse the id.
    if (it != pending_.end() && it->second.epoch == epoch) {
      state = std::move(it->second.state);
      pending_.erase(it);
    }
  }
  if (!state) return;  // stale or unknown response — discard
  if (msg.is_error()) {
    Complete(state, DecodeError(msg.payload), "");
  } else {
    Complete(state, Status::Ok(), std::move(msg.payload));
  }
}

Status RpcClient::EnsureConnectedLocked(Link* stale) {
  if (link_.conn && !link_.conn->closed()) return Status::Ok();
  *stale = DetachLocked();
  if (destroying_) return Status::Unavailable("client destroyed: " + address_);
  ConnectionPtr conn;
  Status s = network_->Connect(address_, options_.link, &conn,
                               options_.identity);
  if (!s.ok()) {
    // A vanished listener is a transient condition (the server may
    // restart) — surface it as retryable UNAVAILABLE, not NotFound.
    if (s.code() == ErrorCode::kNotFound) {
      return Status::Unavailable("server unreachable: " + s.message());
    }
    return s;
  }
  link_.conn = std::shared_ptr<Connection>(conn.release());
  link_.epoch = ++epoch_;
  {
    std::lock_guard<std::mutex> lock(gate_->mu);
    gate_->live_epoch = link_.epoch;
  }
  Receiver receiver = ReceiverFor(link_.epoch);
  if (!link_.conn->DeliverTo(receiver)) {
    link_.receiver = std::thread(
        [conn = link_.conn, receiver = std::move(receiver)] {
          Message msg;
          while (conn->Recv(&msg).ok()) receiver.on_message(std::move(msg));
          receiver.on_closed();
        });
  }
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics) {
      options_.metrics->GetCounter("rpc_client_reconnects_total")->Increment();
    }
    // Re-authenticate on the fresh connection as a pending call (its
    // reply completes it), waiting here so no later call outruns the
    // handshake. Inline rather than via Call() to avoid recursing into
    // the retry loop.
    auto state = std::make_shared<detail::CallState>();
    state->target = address_;
    if (options_.call_timeout.count() > 0) {
      state->has_deadline = true;
      state->deadline =
          rlscommon::SystemClock::Instance()->Now() +
          std::chrono::duration_cast<rlscommon::Duration>(options_.call_timeout);
    }
    Message auth;
    auth.opcode = kOpcodeAuth;
    auth.payload = options_.credential.dn;
    if (!AddPending(link_.epoch, state, &auth.request_id)) {
      return ConnectionClosed();
    }
    const uint32_t auth_id = auth.request_id;
    s = link_.conn->Send(std::move(auth));
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        pending_.erase(auth_id);
      }
      return s;
    }
    s = Future(state).Wait(nullptr);
    if (!s.ok()) return s;
  }
  ever_connected_ = true;
  return Status::Ok();
}

Future RpcClient::BeginCall(uint16_t opcode, const std::string& request) {
  auto state = std::make_shared<detail::CallState>();
  state->target = address_;
  // The deadline covers send + wait: the link delay charged by Send()
  // counts against it.
  if (options_.call_timeout.count() > 0) {
    state->has_deadline = true;
    state->deadline =
        rlscommon::SystemClock::Instance()->Now() +
        std::chrono::duration_cast<rlscommon::Duration>(options_.call_timeout);
  }
  Link stale;
  Status s;
  std::shared_ptr<Connection> conn;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = EnsureConnectedLocked(&stale);
    conn = link_.conn;
    epoch = link_.epoch;
  }
  Retire(std::move(stale));
  if (!s.ok()) {
    Complete(state, std::move(s), "");
    return Future(state);
  }
  Message msg;
  msg.opcode = opcode;
  msg.payload = request;
  // Propagate the ambient trace, or start a root trace at this edge.
  // Each call gets its own span id under the trace.
  rlscommon::TraceContext trace = rlscommon::CurrentTrace();
  msg.trace_id = trace.valid() ? trace.trace_id : obs::NewTraceId();
  msg.span_id = obs::NewTraceId();
  if (!AddPending(epoch, state, &msg.request_id)) {
    Complete(state, ConnectionClosed(), "");
    return Future(state);
  }
  const uint32_t request_id = msg.request_id;
  s = conn->Send(std::move(msg));
  if (!s.ok()) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.erase(request_id);
    }
    Complete(state, std::move(s), "");
  }
  return Future(state);
}

rlscommon::Duration RpcClient::NextBackoff(int attempt) {
  const RetryPolicy& p = options_.retry;
  double backoff_ms = static_cast<double>(p.initial_backoff.count());
  for (int i = 1; i < attempt; ++i) backoff_ms *= p.multiplier;
  backoff_ms = std::min(backoff_ms, static_cast<double>(p.max_backoff.count()));
  if (p.jitter > 0) {
    // Uniform in [1 - jitter, 1 + jitter], from the client's own seeded
    // stream so chaos runs replay exactly.
    backoff_ms *= 1.0 + p.jitter * (2.0 * jitter_rng_.NextDouble() - 1.0);
  }
  return std::chrono::duration_cast<rlscommon::Duration>(
      std::chrono::duration<double, std::milli>(backoff_ms));
}

Status RpcClient::Call(uint16_t opcode, const std::string& request,
                       std::string* response) {
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  Status s;
  for (int attempt = 1;; ++attempt) {
    Future future = BeginCall(opcode, request);
    s = future.Wait(response);
    if (s.ok() || !rlscommon::IsRetryableError(s.code())) return s;
    if (s.code() == ErrorCode::kTimeout && options_.metrics) {
      options_.metrics->GetCounter("rpc_client_timeouts_total")->Increment();
    }
    if (attempt >= max_attempts) return s;
    // A timed-out connection may still deliver the late response; drop
    // the connection so the retry starts clean (the epoch tag on the
    // abandoned call keeps the late response from crossing over). It is
    // closed outside mu_: its close notice may run callbacks here.
    std::shared_ptr<Connection> stale;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stale = link_.conn;
    }
    if (stale) stale->Close();
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics) {
      options_.metrics->GetCounter("rpc_client_retries_total")->Increment();
    }
    // Honor a server-provided retry-after hint (load shedding): never
    // come back sooner than the server asked, whatever the local policy.
    rlscommon::Duration backoff;
    {
      std::lock_guard<std::mutex> lock(mu_);
      backoff = NextBackoff(attempt);
    }
    const rlscommon::Duration hinted =
        std::chrono::duration_cast<rlscommon::Duration>(s.retry_after());
    if (hinted > backoff) backoff = hinted;
    if (backoff > rlscommon::Duration::zero()) {
      rlscommon::SystemClock::Instance()->SleepFor(backoff);
    }
  }
}

}  // namespace net
