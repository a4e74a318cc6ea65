#include "svc/caller.hpp"
#include "simtime/clock.hpp"

#include <algorithm>
#include <deque>

#include "svc/backoff.hpp"
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

// The client spans of one fan-out. They are opened one after another on the
// calling thread, so they are ended newest first, as nested SpanScopes would
// be, which hands the thread its own trace context back.
struct FanOutSpans {
  std::deque<trace::SpanScope> spans;

  ~FanOutSpans() {
    for (auto it = spans.rbegin(); it != spans.rend(); ++it) it->end();
  }
};

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
  Backoff backoff(
      {.initial = std::chrono::duration_cast<std::chrono::microseconds>(
           policy_.initial_backoff),
       .multiplier = policy_.multiplier,
       .cap = std::chrono::duration_cast<std::chrono::microseconds>(
           policy_.max_backoff),
       .jitter = policy_.jitter},
      id);

  int sent = 0;
  while (true) {
    ep->send(to_, as_u32(type), payload);
    ++sent;
    if (sent > 1) {
      kLog.debug("retransmit #{} of {} req {} to {}", sent - 1,
                 msg_type_name(as_u32(type)), id, to_.str());
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

std::vector<Outcome> call_all(vnet::Process& proc,
                              const std::vector<vnet::Address>& targets,
                              MsgType type, const util::Bytes& body,
                              std::chrono::milliseconds deadline) {
  std::vector<Outcome> out(targets.size());
  if (targets.empty()) return out;
  const auto span_name = "rpc." + msg_type_name(as_u32(type));
  const auto parent = trace::current();
  auto ep = proc.open_endpoint();
  const auto until = simtime::now() + deadline;

  // Scatter: every request leaves before the first wait.
  FanOutSpans spans;
  std::vector<std::uint64_t> ids;
  ids.reserve(targets.size());
  for (const auto& to : targets) {
    ids.push_back(next_request_id());
    const auto& span = spans.spans.emplace_back(span_name, parent);
    ep->send(to, as_u32(type), envelope(ids.back(), span.context(), body));
  }

  // Gather: each reply settles the target whose request id it carries;
  // stray and duplicate replies settle nothing.
  std::vector<bool> answered(targets.size(), false);
  std::size_t pending = targets.size();
  while (pending > 0) {
    const auto now = simtime::now();
    if (now >= until) break;
    const auto remaining =
        std::chrono::ceil<std::chrono::milliseconds>(until - now);
    auto msg = ep->recv_for(std::max(remaining, std::chrono::milliseconds(1)));
    if (!msg) {
      if (ep->closed()) throw util::StoppedError();
      continue;
    }
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (answered[i]) continue;
      try {
        auto reply = parse_reply(*msg, ids[i]);
        if (!reply) continue;
        out[i].reply = std::move(*reply);
      } catch (const CallError& e) {
        out[i].error = e.what();
        spans.spans[i].note("error", "call");
      }
      answered[i] = true;
      --pending;
      break;
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (answered[i]) continue;
    out[i].error = "deadline";
    spans.spans[i].note("error", "deadline");
  }
  return out;
}

}  // namespace dac::svc
