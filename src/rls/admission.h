// Overload protection for the RLS server (roadmap: traffic realism).
//
// The paper's server melts the usual way when offered load exceeds
// capacity: every request is accepted, queues grow without bound, and
// p99 latency explodes for everyone — including the soft-state updates
// that keep RLI indices alive. This layer gives the server an explicit
// admission policy instead:
//
//   * per-DN token buckets: each authenticated identity gets a refill
//     rate and burst, with operation costs keyed by the gsi::Privilege
//     class the operation requires (writes cost more than reads, like
//     the paper's measured update-vs-query service times);
//   * a protected priority lane: soft-state updates, admin operations
//     and monitoring probes bypass the buckets and never wait for one
//     of the RPC server's execution slots, so one tenant's query storm
//     cannot starve the RLI update stream or blind operators. The lane
//     and the cost both follow from the privilege in the opcode's
//     rls::kOpTable row (OpSpec::priority);
//   * shed-with-hint: rejected requests fail UNAVAILABLE with a
//     retry-after hint that net::RetryPolicy honors as a backoff floor.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/error.h"
#include "gsi/gsi.h"
#include "net/rpc.h"
#include "obs/metrics.h"

namespace rls {

/// Overload-protection knobs for an RlsServer. All zero (the default)
/// disables the layer entirely — the pre-overload behavior.
struct ServerLimits {
  /// Execution slots: normal-lane handlers that may run at once, each
  /// on its connection thread (net::ServerOptions::workers). 0 = no
  /// bound.
  int workers = 0;

  /// Readers that may wait for a slot; one more sheds. 0 = unbounded.
  std::size_t queue_depth = 0;

  /// Per-DN token refill rate (tokens/second). 0 = no rate limiting.
  double per_dn_rate = 0;

  /// Per-DN bucket capacity (burst). 0 = one second's worth of tokens.
  double per_dn_burst = 0;

  /// Token cost per request, indexed by the gsi::Privilege class the
  /// operation requires. Writes default to twice the cost of reads —
  /// the paper measures adds/deletes at roughly twice query service
  /// time (Figs. 4 vs 6).
  std::array<double, 6> privilege_cost{1, 2, 1, 1, 1, 1};

  /// Retry-after hint attached to sheds (also the queue-full hint via
  /// net::ServerOptions::shed_retry_after). The rate limiter raises it
  /// to the actual token-deficit refill time when that is longer.
  std::chrono::milliseconds retry_after{50};

  bool Enabled() const {
    return workers > 0 || queue_depth > 0 || per_dn_rate > 0;
  }
};

/// The admission policy behind net::ServerOptions::admission: routes
/// protected traffic to the priority lane and charges everything else
/// against per-DN token buckets. Thread-safe; one instance per server.
/// Its counts live in `registry`, which must outlive it.
class AdmissionController {
 public:
  AdmissionController(const ServerLimits& limits, rlscommon::Clock* clock,
                      obs::Registry* registry);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// The admission decision for one authenticated request.
  net::AdmitDecision Admit(const gsi::AuthContext& context, uint16_t opcode);

 private:
  struct Bucket {
    double tokens = 0;
    rlscommon::TimePoint last{};
    obs::Counter* requests = nullptr;  // admission_dn_requests_total{dn=}
    obs::Counter* shed = nullptr;      // admission_dn_shed_total{dn=}
  };

  ServerLimits limits_;
  rlscommon::Clock* clock_;
  obs::Registry* registry_;

  obs::Counter* admitted_normal_;
  obs::Counter* admitted_priority_;
  obs::Counter* shed_rate_limit_;  // rpc_shed_total{reason="rate_limit"}

  std::mutex mu_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace rls
