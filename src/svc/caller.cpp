#include "svc/caller.hpp"
#include "simtime/clock.hpp"

#include <algorithm>
#include <optional>

#include "svc/call_table.hpp"

namespace dac::svc {

Caller::Caller(vnet::Node& node, vnet::Address to, RetryPolicy policy,
               MetricsRegistry* metrics)
    : node_(&node), to_(to), policy_(policy), metrics_(metrics) {}

Caller::Caller(vnet::Process& proc, vnet::Address to, RetryPolicy policy,
               MetricsRegistry* metrics)
    : proc_(&proc), to_(to), policy_(policy), metrics_(metrics) {}

std::unique_ptr<vnet::Endpoint> Caller::open_endpoint() const {
  return proc_ ? proc_->open_endpoint() : node_->open_endpoint();
}

util::Bytes Caller::call(MsgType type, util::Bytes body,
                         CallOptions opts) const {
  const auto start = simtime::now();
  const auto ep = open_endpoint();
  CallTable calls(*ep, policy_);
  std::optional<Outcome> answer;
  (void)calls.call(to_, type, body, opts.deadline,
                   [&answer](Outcome o) { answer = std::move(o); });
  while (!answer) {
    const auto now = simtime::now();
    if (const auto due = *calls.next_due(); now < due) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(due - now);
      if (auto msg = ep->recv_for(std::max(wait, std::chrono::milliseconds(1)))) {
        (void)calls.settle(*msg);
      } else if (ep->closed()) {
        throw util::StoppedError();
      }
      continue;
    }
    calls.fire_due();
  }
  if (metrics_) {
    const std::chrono::duration<double, std::milli> took =
        simtime::now() - start;
    metrics_->record(as_u32(type), took.count(), !answer->ok());
  }
  if (answer->ok()) return std::move(*answer->reply);
  if (answer->answered()) throw CallError(answer->code, answer->error);
  throw DeadlineError("svc: deadline exceeded calling " +
                      msg_type_name(as_u32(type)) + " on " + to_.str() +
                      " (req " + std::to_string(answer->id) + ")");
}

}  // namespace dac::svc
