#include "svc/call_table.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace dac::svc {

namespace {
const util::Logger kLog("svc.calls");
}  // namespace

CallTable::CallTable(vnet::Endpoint& ep, RetryPolicy policy)
    : ep_(ep), policy_(policy) {}

std::uint64_t CallTable::call(const vnet::Address& to, MsgType type,
                              const util::Bytes& body,
                              std::chrono::milliseconds deadline, Done done) {
  const auto id = next_request_id();
  // Client-side span for the whole call, resends included; the callee's
  // handler span becomes its child.
  auto span = std::make_unique<trace::DetachedSpan>(
      "rpc." + msg_type_name(as_u32(type)), trace::current());
  auto payload = envelope(id, span->context(), body);
  ep_.send(to, as_u32(type), payload);
  const auto now = simtime::now();
  Entry e{.to = to,
          .type = as_u32(type),
          .payload = std::move(payload),
          .span = std::move(span),
          .backoff = policy_.backoff(id),
          .deadline = now + deadline,
          .done = std::move(done)};
  e.due = next_slot(e, now);
  due_.emplace(e.due, id);
  calls_.emplace(id, std::move(e));
  return id;
}

simtime::TimePoint CallTable::next_slot(Entry& e,
                                        simtime::TimePoint now) const {
  if (e.sent >= std::max(1, policy_.max_attempts)) return e.deadline;
  return std::min(e.deadline, now + e.backoff.next());
}

bool CallTable::settle(const vnet::Message& msg) {
  if (msg.type != as_u32(MsgType::kReply)) return false;
  Outcome outcome;
  Calls::iterator it;
  try {
    outcome.id = util::ByteReader(msg.payload).get<std::uint64_t>();
    it = calls_.find(outcome.id);
    if (it == calls_.end()) return false;  // stray, stale or duplicate
    outcome.reply = parse_reply(msg, outcome.id);
  } catch (const CallError& e) {
    outcome.code = e.code();
    outcome.error = e.what();
  } catch (const util::DecodeError& e) {
    kLog.warn("malformed reply from {}: {}", msg.from.str(), e.what());
    return false;
  }
  finish(it, std::move(outcome));
  return true;
}

std::optional<simtime::TimePoint> CallTable::next_due() const {
  if (due_.empty()) return std::nullopt;
  return due_.begin()->first;
}

void CallTable::fire_due() {
  const auto now = simtime::now();
  // A continuation may make or cancel calls, so take one at a time.
  while (!due_.empty() && due_.begin()->first <= now) {
    const auto id = due_.begin()->second;
    due_.erase(due_.begin());
    const auto it = calls_.find(id);
    auto& e = it->second;
    if (now >= e.deadline) {
      kLog.debug("{} req {} to {} unanswered after {} attempt(s)",
                 msg_type_name(e.type), id, e.to.str(), e.sent);
      finish(it, {.id = id, .error = "deadline"});
      continue;
    }
    ep_.send(e.to, e.type, e.payload);
    ++e.sent;
    kLog.debug("retransmit #{} of {} req {} to {}", e.sent - 1,
               msg_type_name(e.type), id, e.to.str());
    // Every copy may be answered, some after the owner has its reply and
    // closed the endpoint: those answers are expected, not lost.
    if (e.deadline > linger_) {
      linger_ = e.deadline;
      ep_.linger_until(linger_);
    }
    e.due = next_slot(e, now);
    due_.emplace(e.due, id);
  }
}

void CallTable::finish(Calls::iterator it, Outcome outcome) {
  auto node = calls_.extract(it);
  auto& e = node.mapped();
  due_.erase({e.due, node.key()});
  if (!outcome.ok()) {
    e.span->note("error", outcome.answered() ? "call" : "deadline");
  }
  e.span->end();
  e.done(std::move(outcome));
}

void CallTable::cancel(std::uint64_t id) {
  const auto it = calls_.find(id);
  if (it == calls_.end()) return;
  due_.erase({it->second.due, id});
  calls_.erase(it);
}

}  // namespace dac::svc
