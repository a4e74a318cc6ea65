// Client side of the service runtime: a Caller issues blocking
// request/reply calls against one target address. Each call is one
// svc::CallTable entry on a per-call endpoint, and the Caller waits on it:
// the table retransmits on RetryPolicy::backoff() under the same request id
// (a ServiceLoop on the far side deduplicates it) and ends the call at its
// deadline. A daemon's fan-out to many targets is ServiceLoop::call_all.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "svc/backoff.hpp"
#include "svc/deadlines.hpp"
#include "svc/metrics.hpp"
#include "svc/wire.hpp"

namespace dac::svc {

struct CallOptions {
  std::chrono::milliseconds deadline{deadlines::kDefault};
};

class Caller {
 public:
  // Calls from a non-process context (client commands, tests, benches).
  // `policy` is the cluster's one schedule unless a test or the
  // single-attempt rpc::call shim picks another.
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

 private:
  std::unique_ptr<vnet::Endpoint> open_endpoint() const;

  vnet::Node* node_ = nullptr;
  vnet::Process* proc_ = nullptr;
  vnet::Address to_;
  RetryPolicy policy_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace dac::svc
