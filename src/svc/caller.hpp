// Client side of the service runtime: a Caller issues request/reply calls
// against one target address with per-call deadlines and bounded retransmits
// (exponential backoff + jitter). A retried request reuses its request-id, so
// a ServiceLoop on the far side deduplicates it instead of executing twice.
// A daemon's fan-out to many targets is ServiceLoop::call_all.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "svc/backoff.hpp"
#include "svc/deadlines.hpp"
#include "svc/metrics.hpp"
#include "svc/wire.hpp"

namespace dac::svc {

struct RetryPolicy {
  // Total send attempts per call (1 = no retransmits).
  int max_attempts = 3;
  std::chrono::milliseconds initial_backoff{5};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{200};
  double jitter = 0.25;

  [[nodiscard]] static RetryPolicy none() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }

  // The retransmission schedule of one request, seeded by its id.
  [[nodiscard]] Backoff backoff(std::uint64_t seed) const {
    using std::chrono::microseconds;
    return Backoff(
        {.initial = std::chrono::duration_cast<microseconds>(initial_backoff),
         .multiplier = multiplier,
         .cap = std::chrono::duration_cast<microseconds>(max_backoff),
         .jitter = jitter},
        seed);
  }
};

struct CallOptions {
  std::chrono::milliseconds deadline{deadlines::kDefault};
  // Non-idempotent calls are never retransmitted, regardless of policy.
  // Requests to ServiceLoop daemons are dedup-protected and can stay true.
  bool idempotent = true;
};

class Caller {
 public:
  // Calls from a non-process context (client commands, tests, benches).
  Caller(vnet::Node& node, vnet::Address to, RetryPolicy policy = {},
         MetricsRegistry* metrics = nullptr);
  // Calls from a process context (daemons): the ephemeral per-call endpoint
  // is owned by the process, so request_stop() unblocks an in-flight call.
  Caller(vnet::Process& proc, vnet::Address to, RetryPolicy policy = {},
         MetricsRegistry* metrics = nullptr);

  // Blocking request/reply. Throws CallError on an error reply, DeadlineError
  // when the deadline passes with no reply, StoppedError on cooperative kill.
  // [[nodiscard]]: a dropped reply body is only ever intentional (fire-and-
  // forget to a dedup-protected daemon); make those sites say (void).
  [[nodiscard]] util::Bytes call(MsgType type, util::Bytes body,
                                 CallOptions opts = {}) const;

  [[nodiscard]] const vnet::Address& target() const { return to_; }
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

 private:
  std::unique_ptr<vnet::Endpoint> open_endpoint() const;

  vnet::Node* node_ = nullptr;
  vnet::Process* proc_ = nullptr;
  vnet::Address to_;
  RetryPolicy policy_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace dac::svc
