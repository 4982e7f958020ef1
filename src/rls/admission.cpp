#include "rls/admission.h"

#include <algorithm>

#include "rls/protocol.h"

namespace rls {

using rlscommon::Status;

AdmissionController::AdmissionController(const ServerLimits& limits,
                                         rlscommon::Clock* clock,
                                         obs::Registry* registry)
    : limits_(limits),
      clock_(clock),
      registry_(registry),
      admitted_normal_(
          registry->GetCounter("admission_admitted_total", obs::Label("lane", "normal"))),
      admitted_priority_(
          registry->GetCounter("admission_admitted_total", obs::Label("lane", "priority"))),
      // The same family as the RPC server's queue-full sheds.
      shed_rate_limit_(
          registry->GetCounter("rpc_shed_total", obs::Label("reason", "rate_limit"))) {
  if (limits_.per_dn_burst <= 0) limits_.per_dn_burst = limits_.per_dn_rate;
}

net::AdmitDecision AdmissionController::Admit(const gsi::AuthContext& context,
                                              uint16_t opcode) {
  const OpSpec* op = FindOp(opcode);
  if (op && op->priority()) {
    admitted_priority_->Increment();
    return {Status::Ok(), /*priority=*/true};
  }
  if (limits_.per_dn_rate > 0) {
    // Every normal-lane row has a privilege; an unknown opcode is charged
    // as a read and then rejected by the server.
    const gsi::Privilege cls = op ? *op->privilege : gsi::Privilege::kLrcRead;
    const double cost =
        std::max(0.0, limits_.privilege_cost[static_cast<std::size_t>(cls)]);
    const rlscommon::TimePoint now = clock_->Now();
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = buckets_.try_emplace(context.dn);
    Bucket& bucket = it->second;
    if (fresh) {
      bucket.tokens = limits_.per_dn_burst;
      bucket.last = now;
      const std::string label =
          obs::Label("dn", context.dn.empty() ? "anonymous" : context.dn);
      bucket.requests = registry_->GetCounter("admission_dn_requests_total", label);
      bucket.shed = registry_->GetCounter("admission_dn_shed_total", label);
    } else {
      const double dt =
          std::chrono::duration<double>(now - bucket.last).count();
      if (dt > 0) {
        bucket.tokens = std::min(limits_.per_dn_burst,
                                 bucket.tokens + dt * limits_.per_dn_rate);
        bucket.last = now;
      }
    }
    bucket.requests->Increment();
    if (bucket.tokens < cost) {
      shed_rate_limit_->Increment();
      bucket.shed->Increment();
      // Tell the client when its bucket will actually hold `cost`
      // tokens again; never less than the configured floor.
      const double deficit_ms =
          (cost - bucket.tokens) / limits_.per_dn_rate * 1000.0;
      const auto hint = std::max(
          limits_.retry_after,
          std::chrono::milliseconds(static_cast<int64_t>(deficit_ms) + 1));
      return {Status::Unavailable("rate limit exceeded for " +
                                  (context.dn.empty() ? "anonymous client"
                                                      : context.dn))
                  .WithRetryAfter(hint),
              false};
    }
    bucket.tokens -= cost;
  }
  admitted_normal_->Increment();
  return {Status::Ok(), /*priority=*/false};
}

}  // namespace rls
