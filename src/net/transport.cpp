#include "net/transport.h"

#include <utility>

#include "net/tcp_transport.h"

namespace net {

using rlscommon::Status;

bool MessageQueue::Push(Message msg) {
  bool deliver = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    deliver = static_cast<bool>(receiver_.on_message);
    if (!deliver) queue_.push_back(std::move(msg));
  }
  if (!deliver) {
    cv_.notify_one();
    return true;
  }
  // Set before the first push and never changed, so the receiver can be
  // called outside the lock.
  receiver_.on_message(std::move(msg));
  return true;
}

bool MessageQueue::SetReceiver(Receiver receiver) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !queue_.empty()) return false;
  receiver_ = std::move(receiver);
  return true;
}

Status MessageQueue::Pop(Message* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return Status::Unavailable("connection closed");
  *out = std::move(queue_.front());
  queue_.pop_front();
  return Status::Ok();
}

void MessageQueue::Close() {
  std::function<void()> on_closed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    on_closed = std::exchange(receiver_.on_closed, nullptr);
  }
  cv_.notify_all();
  if (on_closed) on_closed();
}

bool MessageQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void RateLimiter::Acquire(std::size_t bytes) {
  if (bytes_per_sec_ <= 0) return;
  const auto cost = std::chrono::duration_cast<rlscommon::Duration>(
      std::chrono::duration<double>(static_cast<double>(bytes) / bytes_per_sec_));
  rlscommon::TimePoint wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const rlscommon::TimePoint now = clock_->Now();
    const rlscommon::TimePoint start = next_free_ > now ? next_free_ : now;
    next_free_ = start + cost;
    wake = next_free_;
  }
  const rlscommon::Duration delay = wake - clock_->Now();
  if (delay > rlscommon::Duration::zero()) clock_->SleepFor(delay);
}

InProcConnection::InProcConnection(std::shared_ptr<MessageQueue> incoming,
                                   std::shared_ptr<MessageQueue> outgoing,
                                   LinkModel link, rlscommon::Clock* clock,
                                   std::string peer,
                                   std::shared_ptr<RateLimiter> peer_inbound,
                                   std::string local, FaultInjector* faults)
    : Connection(link, std::move(peer), std::move(local)),
      incoming_(std::move(incoming)),
      outgoing_(std::move(outgoing)),
      clock_(clock),
      peer_inbound_(std::move(peer_inbound)),
      faults_(faults) {}

Status InProcConnection::Send(Message msg) {
  const std::size_t bytes = msg.WireBytes();
  rlscommon::Duration delay = link_.DelayFor(bytes);
  SendVerdict verdict = SendVerdict::kDeliver;
  if (faults_) {
    const uint64_t index = messages_sent_.load(std::memory_order_relaxed) + 1;
    verdict = faults_->OnSend(local_, peer_, index, &delay);
  }
  if (verdict == SendVerdict::kDisconnect) {
    Close();
    return Status::Unavailable("fault: forced disconnect from " + peer_);
  }
  if (delay > rlscommon::Duration::zero()) clock_->SleepFor(delay);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  // A dropped message still charged the link and counts as sent — the
  // sender cannot tell; its RPC deadline will.
  if (verdict == SendVerdict::kDrop) return Status::Ok();
  if (peer_inbound_) peer_inbound_->Acquire(bytes);
  if (!outgoing_->Push(std::move(msg))) {
    return Status::Unavailable("peer closed connection to " + peer_);
  }
  return Status::Ok();
}

Status InProcConnection::Recv(Message* out) { return incoming_->Pop(out); }

void InProcConnection::Close() {
  incoming_->Close();
  outgoing_->Close();
}

Status InProcTransport::Listen(const std::string& address, AcceptHandler on_accept) {
  std::lock_guard<std::mutex> lock(mu_);
  if (listeners_.count(address)) {
    return Status::AlreadyExists("address already in use: " + address);
  }
  listeners_.emplace(address, std::move(on_accept));
  return Status::Ok();
}

void InProcTransport::StopListening(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.erase(address);
}

void InProcTransport::SetInboundCapacity(const std::string& address,
                                         double bytes_per_sec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes_per_sec <= 0) {
    inbound_limits_.erase(address);
  } else {
    inbound_limits_[address] = std::make_shared<RateLimiter>(bytes_per_sec, clock_);
  }
}

Status InProcTransport::Connect(const std::string& address, const LinkModel& link,
                                ConnectionPtr* out,
                                const std::string& local_identity) {
  if (faults_) {
    Status verdict = faults_->OnConnect(local_identity, address);
    if (!verdict.ok()) return verdict;
  }
  AcceptHandler handler;
  std::shared_ptr<RateLimiter> inbound;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = listeners_.find(address);
    if (it == listeners_.end()) {
      return Status::NotFound("connection refused: " + address);
    }
    handler = it->second;
    auto limit = inbound_limits_.find(address);
    if (limit != inbound_limits_.end()) inbound = limit->second;
  }
  auto client_to_server = std::make_shared<MessageQueue>();
  auto server_to_client = std::make_shared<MessageQueue>();
  auto client_side = std::make_unique<InProcConnection>(
      server_to_client, client_to_server, link, clock_, address, inbound,
      local_identity, faults_.get());
  auto server_side = std::make_unique<InProcConnection>(
      client_to_server, server_to_client, link, clock_, local_identity, nullptr,
      address, faults_.get());
  handler(std::move(server_side));
  *out = std::move(client_side);
  return Status::Ok();
}

FaultInjector* InProcTransport::EnableFaultInjection(uint64_t seed) {
  if (!faults_) faults_ = std::make_unique<FaultInjector>(seed, clock_);
  return faults_.get();
}

std::unique_ptr<Transport> MakeTransport(const std::string& uri,
                                         rlscommon::Clock* clock) {
  std::string scheme = uri;
  std::string rest;
  const std::size_t sep = uri.find("://");
  if (sep != std::string::npos) {
    scheme = uri.substr(0, sep);
    rest = uri.substr(sep + 3);
  }
  if (scheme.empty() || scheme == "inproc") {
    return std::make_unique<InProcTransport>(clock);
  }
  if (scheme == "tcp") {
    TcpOptions options;
    if (!rest.empty()) {
      // A port in the factory URI is irrelevant (listeners name their
      // own); keep only the bind host.
      const std::size_t colon = rest.find(':');
      options.bind_host = colon == std::string::npos ? rest : rest.substr(0, colon);
    }
    return std::make_unique<TcpTransport>(options, clock);
  }
  return nullptr;
}

}  // namespace net
