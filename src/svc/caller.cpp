#include "svc/caller.hpp"
#include "simtime/clock.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/logging.hpp"

namespace dac::svc {

namespace {

const util::Logger kLog("svc.caller");

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             simtime::now() - start)
      .count();
}

}  // namespace

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
  const auto id = next_request_id();
  // Client-side span for the whole call (all retransmits). Its context is
  // stamped into the envelope, so the callee's handler span becomes a child
  // of this one; with no recorder installed this is inert and the call
  // propagates the ambient context unchanged.
  trace::SpanScope span("rpc." + msg_type_name(as_u32(type)));
  const auto payload = envelope(id, span.context(), body);
  auto ep = open_endpoint();

  const auto start = simtime::now();
  const auto deadline = start + opts.deadline;
  const int attempts = opts.idempotent ? std::max(1, policy_.max_attempts) : 1;
  auto backoff = policy_.backoff(id);

  int sent = 0;
  while (true) {
    ep->send(to_, as_u32(type), payload);
    ++sent;
    if (sent > 1) {
      kLog.debug("retransmit #{} of {} req {} to {}", sent - 1,
                 msg_type_name(as_u32(type)), id, to_.str());
      // Every copy may be answered, some after this call has its reply and
      // closed the endpoint: those answers are expected, not lost.
      ep->linger_until(deadline);
    }
    // Wait for the reply until either the overall deadline or the next
    // retransmission slot, whichever comes first.
    const auto resend_at =
        (sent < attempts)
            ? std::min(deadline,
                       simtime::now() + backoff.next())
            : deadline;
    while (true) {
      const auto now = simtime::now();
      if (now >= resend_at) break;
      const auto remaining =
          std::chrono::ceil<std::chrono::milliseconds>(resend_at - now);
      auto msg = ep->recv_for(std::max(remaining, std::chrono::milliseconds(1)));
      if (!msg) {
        if (ep->closed()) throw util::StoppedError();
        continue;
      }
      try {
        if (auto reply = parse_reply(*msg, id)) {
          if (metrics_) metrics_->record(as_u32(type), ms_since(start), false);
          return std::move(*reply);
        }
      } catch (const CallError&) {
        span.note("error", "call");
        if (metrics_) metrics_->record(as_u32(type), ms_since(start), true);
        throw;
      }
    }
    if (simtime::now() >= deadline) {
      span.note("error", "deadline");
      if (metrics_) metrics_->record(as_u32(type), ms_since(start), true);
      throw DeadlineError("svc: deadline exceeded calling " +
                          msg_type_name(as_u32(type)) + " on " + to_.str() +
                          " (req " + std::to_string(id) + ", " +
                          std::to_string(sent) + " attempt(s))");
    }
  }
}

}  // namespace dac::svc
