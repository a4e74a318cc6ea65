// The one outbound-call engine of the service runtime. A CallTable holds the
// requests sent from one endpoint and not yet answered. Each entry keeps its
// target and request id, the envelope (resent unchanged), its retransmission
// schedule (RetryPolicy::backoff(id)) and deadline, a detached rpc.<TYPE>
// client span and a continuation. The owner hands the table every kReply its
// endpoint receives (settle) and calls fire_due() once the clock reaches
// next_due(): a call goes out again on its backoff until it is answered, and
// ends with "deadline" once its deadline passes. Every target deduplicates
// request ids (svc::ServiceLoop), so a resend never runs a request twice.
//
// Three owners drive one: svc::Caller (one entry on a per-call endpoint,
// then a blocking wait), ServiceLoop::call_all (one entry per target and a
// join, on the loop's endpoint) and the Maui scheduler (on its mailbox). Only
// the owner's thread uses a table. Continuations run inline in settle() and
// fire_due(), after their entry left the table, so they may make or cancel
// calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "simtime/clock.hpp"
#include "svc/backoff.hpp"
#include "svc/wire.hpp"
#include "trace/trace.hpp"

namespace dac::svc {

// How one call ended.
struct Outcome {
  std::uint64_t id = 0;              // the request's id
  std::optional<util::Bytes> reply;  // the reply body when it answered ok
  ReplyCode code = ReplyCode::kOk;   // the error reply's code
  std::string error;  // the CallError text, or "deadline" when it never did

  [[nodiscard]] bool ok() const { return reply.has_value(); }
  // False when the deadline passed with no reply.
  [[nodiscard]] bool answered() const {
    return ok() || code != ReplyCode::kOk;
  }
};

class CallTable {
 public:
  using Done = std::function<void(Outcome)>;

  explicit CallTable(vnet::Endpoint& ep, RetryPolicy policy = {});

  CallTable(const CallTable&) = delete;
  CallTable& operator=(const CallTable&) = delete;

  // Sends `type` with `body` to `to` under a new request id and returns the
  // id. The call's rpc.<TYPE> span is a child of the thread's current
  // context, and its own context rides in the envelope. `done` runs once:
  // with the reply, with the error reply, or with "deadline" when
  // `deadline` passes unanswered.
  std::uint64_t call(const vnet::Address& to, MsgType type,
                     const util::Bytes& body,
                     std::chrono::milliseconds deadline, Done done);

  // Settles the call a kReply message answers and runs its continuation.
  // False when it answers none: stray, stale, duplicate or malformed.
  bool settle(const vnet::Message& msg);

  // When fire_due() has work next: the soonest resend or deadline.
  [[nodiscard]] std::optional<simtime::TimePoint> next_due() const;

  // Resends each call whose backoff slot has come, and ends with "deadline"
  // each call past its deadline.
  void fire_due();

  // Drops a call without running its continuation; a no-op once settled.
  void cancel(std::uint64_t id);

 private:
  struct Entry {
    vnet::Address to;
    std::uint32_t type = 0;
    util::Bytes payload;  // the envelope, resent unchanged
    std::unique_ptr<trace::DetachedSpan> span;  // ends when the call does
    Backoff backoff;
    int sent = 1;
    simtime::TimePoint due;  // the next resend, or the deadline
    simtime::TimePoint deadline;
    Done done;
  };
  using Calls = std::unordered_map<std::uint64_t, Entry>;

  // When `e` is due next, counted from `now`.
  [[nodiscard]] simtime::TimePoint next_slot(Entry& e,
                                             simtime::TimePoint now) const;
  // Takes the call out of the table, ends its span and runs its continuation.
  void finish(Calls::iterator it, Outcome outcome);

  vnet::Endpoint& ep_;
  RetryPolicy policy_;
  Calls calls_;  // by request id
  std::set<std::pair<simtime::TimePoint, std::uint64_t>> due_;  // soonest first
  simtime::TimePoint linger_{};  // the latest deadline of a resent call
};

}  // namespace dac::svc
