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
// loop's own endpoint through call_all: one svc::CallTable entry per target
// and a join that runs the continuation. The loop hands the table every
// reply it drains and fires what falls due between requests, so each call
// is resent on its backoff until it is answered or its deadline passes.
//
// The loop remembers the last kDedupWindow completed request-ids together
// with their reply payloads: a retransmitted request is answered from the
// cache instead of being executed twice, which is what makes every
// retransmission safe for non-idempotent operations. A retransmit of a
// still-pending request just retargets the eventual reply. Notifications
// (handled without a reply) are remembered by id in a window of their own,
// so a duplicated notification is dropped, not run again.
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

#include "svc/call_table.hpp"
#include "svc/metrics.hpp"
#include "svc/wire.hpp"
#include "trace/trace.hpp"

namespace dac::svc {

struct ServiceConfig {
  std::string name = "svc";
  // Simulated per-request service cost charged before each handler runs (the
  // paper's server_service_cost).
  std::chrono::microseconds service_cost{0};
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
  // every target at once, one CallTable entry each, and returns. Each reply
  // settles the target whose request id it carries (stray, stale and
  // duplicate replies settle nothing); a silent target is resent on its
  // backoff and marked "deadline" once `deadline` passes. `done` then runs
  // once on the loop thread, under the calling thread's trace context, with
  // one Outcome per target in target order; with no targets it runs before
  // call_all returns. Each target gets its own rpc.<TYPE> client span, a
  // child of that context, ended when the target settles. Loop thread only.
  // A fan-out still pending when the endpoint closes is dropped, and its
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

  // Completed request-ids (and as many notification ids) remembered for
  // duplicate suppression.
  static constexpr std::size_t kDedupWindow = 256;

  // The targets of one call_all still to settle.
  struct Join {
    std::vector<Outcome> out;
    std::size_t pending = 0;
    trace::Context ctx;  // the caller's, restored around `done`
    FanOutDone done;
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
  // Runs the continuation of a fan-out whose targets have all settled.
  void finish_fan_out(Join& join);
  // Time until the next tick, timer or call is due (nullopt: none).
  std::optional<std::chrono::milliseconds> next_timeout();
  // Runs the due ticks and timers, then the calls' due resends and expiries.
  void fire_due();

  vnet::Endpoint& ep_;
  ServiceConfig cfg_;
  MetricsRegistry* metrics_ = nullptr;

  std::map<std::uint32_t, Handler> handlers_;
  std::vector<Tick> ticks_;
  std::map<TimerId, TickFn> timers_;  // loop thread only; soonest first
  std::uint64_t next_timer_seq_ = 0;
  std::thread::id loop_thread_;

  // Outbound calls and dedup state: loop thread only.
  CallTable calls_;
  std::unordered_map<std::uint64_t, util::Bytes> completed_;
  std::deque<std::uint64_t> completed_order_;
  std::unordered_map<std::uint64_t, std::weak_ptr<detail::ResponderState>>
      pending_;
  std::unordered_set<std::uint64_t> notified_;
  std::deque<std::uint64_t> notified_order_;
  std::atomic<std::uint64_t> deduped_{0};  // read from any thread
};

}  // namespace dac::svc
