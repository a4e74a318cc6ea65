// Client side of the service runtime: a Caller issues request/reply calls
// against one target address with per-call deadlines and bounded retransmits
// (exponential backoff + jitter). A retried request reuses its request-id, so
// a ServiceLoop on the far side deduplicates it instead of executing twice.
// call_all scatters one request to many targets and gathers every answer
// under a single deadline.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

// One target's answer to a call_all fan-out.
struct Outcome {
  std::optional<util::Bytes> reply;  // the reply body when it answered ok
  std::string error;  // the CallError text, or "deadline" when it never did

  [[nodiscard]] bool ok() const { return reply.has_value(); }
};

// Scatter/gather from a process context: sends `type` with `body` to every
// target before waiting for any of them, then gathers the replies (matched by
// request id) until all have answered or `deadline` passes, whichever comes
// first. One attempt per target, one deadline for the whole fan-out. Returns
// one Outcome per target, in target order; throws StoppedError on
// cooperative kill (the endpoint is owned by `proc`). Each target gets its
// own rpc.<TYPE> client span under the caller's context.
[[nodiscard]] std::vector<Outcome> call_all(
    vnet::Process& proc, const std::vector<vnet::Address>& targets,
    MsgType type, const util::Bytes& body, std::chrono::milliseconds deadline);

}  // namespace dac::svc
