// Server side of the service runtime. A ServiceLoop drains one endpoint on
// one thread and dispatches each request through a typed table (MsgType ->
// handler): every handler runs inline on the loop thread, one serialized
// lane, exactly the paper's single-threaded pbs_server (Figures 8/9).
// Handlers must not block in outbound calls: a daemon that waits on another
// while its own endpoint goes undrained deadlocks with a peer doing the same.
//
// Handlers reply through a Responder, which may outlive the handler call:
// storing the Responder and completing it later is the supported way to defer
// a reply (pbs_dynget's grant, WAIT_JOB's state change). Each request is
// answered at most once. A held reply that must also go out at a deadline
// arms a one-shot timer (add_timer) from its handler.
//
// Outbound calls (a mother superior's JOIN/DYNJOIN/DISJOIN fan-outs,
// pbs_server's MOM_RUN_JOB, MOM_RELEASE and ELAST_OFFER) leave from the
// loop's own endpoint through call_all and end in a continuation: the loop
// settles their replies by request id as it drains the endpoint, and a
// timer ends the wait at the call's deadline.
//
// The loop remembers the last `dedup_window` completed request-ids together
// with their reply payloads: a retransmitted request is answered from the
// cache instead of being executed twice, which is what makes client-side
// retransmission (svc::Caller) safe for non-idempotent operations. A
// retransmit of a still-pending request just retargets the eventual reply.
// Notifications (handled without a reply) are remembered by id in a window
// of their own, so a duplicated notification is dropped, not run again.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "svc/metrics.hpp"
#include "svc/wire.hpp"
#include "trace/trace.hpp"

namespace dac::svc {

// One target's answer to a call_all fan-out.
struct Outcome {
  std::optional<util::Bytes> reply;  // the reply body when it answered ok
  std::string error;  // the CallError text, or "deadline" when it never did

  [[nodiscard]] bool ok() const { return reply.has_value(); }
};

struct ServiceConfig {
  std::string name = "svc";
  // Simulated per-request service cost charged before each handler runs (the
  // paper's server_service_cost).
  std::chrono::microseconds service_cost{0};
  std::size_t dedup_window = 256;
};

class ServiceLoop;

namespace detail {
struct ResponderState;
}

// Reply handle for one request. Copyable; completing twice is a no-op.
// Completed on the loop thread only, like all of the loop's state.
class Responder {
 public:
  Responder() = default;

  void ok(util::Bytes body = {}) const;
  void error(ReplyCode code, const std::string& message) const;

  [[nodiscard]] bool valid() const { return static_cast<bool>(st_); }
  [[nodiscard]] bool completed() const;

 private:
  friend class ServiceLoop;
  explicit Responder(std::shared_ptr<detail::ResponderState> st)
      : st_(std::move(st)) {}
  std::shared_ptr<detail::ResponderState> st_;
};

namespace detail {
struct ResponderState {
  ServiceLoop* loop = nullptr;
  std::uint64_t id = 0;
  std::uint32_t type = 0;
  std::chrono::steady_clock::time_point start;
  vnet::Address to;  // retargeted on duplicate arrival
  bool done = false;
};
}  // namespace detail

class ServiceLoop {
 public:
  using Handler = std::function<void(const Request&, Responder&)>;
  using TickFn = std::function<void()>;

  ServiceLoop(vnet::Endpoint& ep, ServiceConfig config,
              MetricsRegistry* metrics = nullptr);

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  using FanOutDone = std::function<void(std::vector<Outcome>)>;

  // Registration happens before run(); the dispatch table is immutable after.
  void on(MsgType type, Handler handler);

  // Periodic work on the loop thread (heartbeats, walltime enforcement).
  // Ticks fire between requests and while idle, never during a handler.
  void add_tick(std::chrono::milliseconds interval, TickFn fn);

  // One-shot work on the loop thread once the clock reaches `at`, fired like
  // a tick. Only the loop thread may arm or cancel timers: handlers, ticks,
  // timers and fan-out continuations.
  struct TimerId {
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq = 0;
    auto operator<=>(const TimerId&) const = default;
  };
  TimerId add_timer(std::chrono::steady_clock::time_point at, TickFn fn);
  // Disarms a timer; a no-op once it fired.
  void cancel_timer(const TimerId& id);

  // Scatter/gather from the loop's own endpoint: sends `type` with `body` to
  // every target at once, one request id each, and returns. Each reply
  // settles the target whose request id it carries (stray, stale and
  // duplicate replies settle nothing); one timer marks the targets still
  // silent at `deadline` as "deadline". `done` then runs once on the loop
  // thread, under the calling thread's trace context, with one Outcome per
  // target in target order; with no targets it runs before call_all
  // returns. Each target gets its own rpc.<TYPE> client span, a child of
  // that context, ended when the target settles. Loop thread only. A
  // fan-out still pending when the endpoint closes is dropped, and its
  // `done` never runs.
  void call_all(const std::vector<vnet::Address>& targets, MsgType type,
                const util::Bytes& body, std::chrono::milliseconds deadline,
                FanOutDone done);

  // Serves until the endpoint is closed and drained.
  void run();

  [[nodiscard]] vnet::Endpoint& endpoint() const { return ep_; }
  // Requests answered from the dedup cache or retargeted while pending, and
  // duplicated notifications dropped.
  [[nodiscard]] std::uint64_t deduped() const {
    return deduped_.load(std::memory_order_relaxed);
  }

 private:
  friend class Responder;

  struct FanOut {
    std::vector<std::uint64_t> ids;  // request id per target
    std::vector<Outcome> out;
    std::deque<trace::DetachedSpan> spans;
    std::size_t pending = 0;
    trace::Context ctx;  // the caller's, restored around `done`
    FanOutDone done;
    TimerId deadline;
  };
  // A request a fan-out still waits on: its fan-out and target index.
  struct Awaited {
    std::shared_ptr<FanOut> fan_out;
    std::size_t target = 0;
  };
  struct Tick {
    std::chrono::milliseconds interval{};
    TickFn fn;
    std::chrono::steady_clock::time_point last;
  };

  void serve(vnet::Message msg);
  // Sends the reply for `st` and records it in the dedup cache. Called from
  // Responder; `payload` is a full reply envelope.
  void finish_reply(detail::ResponderState& st, const util::Bytes& payload,
                    bool error);
  // Drops the pending entry of a request handled without a reply and
  // remembers its id, so a duplicate of that notification is not run again.
  void remember_notification(std::uint64_t id);
  // Settles the fan-out target that a kReply message answers, if any.
  void settle_reply(const vnet::Message& msg);
  // Marks every target of `fan` still silent as "deadline" and finishes it.
  void expire_fan_out(FanOut& fan);
  // Runs the continuation of a fan-out whose targets have all settled.
  void finish_fan_out(FanOut& fan);
  // Time until the next tick or timer is due (nullopt: none armed).
  std::optional<std::chrono::milliseconds> next_tick_timeout();
  void fire_due_ticks();

  vnet::Endpoint& ep_;
  ServiceConfig cfg_;
  MetricsRegistry* metrics_ = nullptr;

  std::map<std::uint32_t, Handler> handlers_;
  std::vector<Tick> ticks_;
  std::map<TimerId, TickFn> timers_;  // loop thread only; soonest first
  std::uint64_t next_timer_seq_ = 0;
  std::thread::id loop_thread_;

  // Dedup state and outstanding fan-outs: loop thread only.
  std::unordered_map<std::uint64_t, util::Bytes> completed_;
  std::deque<std::uint64_t> completed_order_;
  std::unordered_map<std::uint64_t, std::weak_ptr<detail::ResponderState>>
      pending_;
  std::unordered_set<std::uint64_t> notified_;
  std::deque<std::uint64_t> notified_order_;
  std::atomic<std::uint64_t> deduped_{0};  // read from any thread
  std::unordered_map<std::uint64_t, Awaited> awaited_;  // by request id
};

}  // namespace dac::svc
