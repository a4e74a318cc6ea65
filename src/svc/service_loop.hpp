// Server side of the service runtime. A ServiceLoop drains one endpoint and
// dispatches each request through a typed table (MsgType -> handler). Every
// handler is registered under an execution class:
//
//  - kMutating requests run inline on the loop thread — one serialized lane,
//    exactly the paper's single-threaded pbs_server (Figures 8/9). Reads
//    (qstat, pbsnodes, heartbeats) take this lane too.
//  - kConcurrent requests run on their own dedicated lane: one extra thread,
//    serialized among themselves, spawned iff any handler registered for it.
//    This is for handlers that BLOCK in outbound calls (a mother superior's
//    JOIN/DYNJOIN/DISJOIN fan-outs, one svc::call_all round trip each): if
//    they ran on the loop thread, the endpoint would stop being drained
//    while they wait, so two daemons calling each other would deadlock
//    until the RPC deadline. The loop
//    thread keeps dispatching (and serving the fast kMutating handlers)
//    while the kConcurrent lane waits; handlers on the two lanes synchronize
//    shared state themselves.
//
// Handlers reply through a Responder, which may outlive the handler call:
// storing the Responder and completing it later is the supported way to defer
// a reply (pbs_dynget's grant, WAIT_JOB's state change). Each request is
// answered at most once. A held reply that must also go out at a deadline
// arms a one-shot timer (add_timer) from its handler.
//
// The loop remembers the last `dedup_window` completed request-ids together
// with their reply payloads: a retransmitted request is answered from the
// cache instead of being executed twice, which is what makes client-side
// retransmission (svc::Caller) safe for non-idempotent operations. A
// retransmit of a still-pending request just retargets the eventual reply.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/metrics.hpp"
#include "svc/wire.hpp"
#include "util/queue.hpp"
#include "util/sync.hpp"

namespace dac::svc {

enum class ExecClass {
  kMutating,    // serialized lane (the loop thread)
  kConcurrent,  // dedicated serialized lane; may block in outbound calls
};

struct ServiceConfig {
  std::string name = "svc";
  // Simulated per-request service cost charged before each handler runs (the
  // paper's server_service_cost). Charged on the executing lane.
  std::chrono::microseconds service_cost{0};
  std::size_t dedup_window = 256;
};

class ServiceLoop;

namespace detail {
struct ResponderState;
}

// Reply handle for one request. Copyable; completing twice is a no-op.
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
  Mutex mu{"responder"};
  vnet::Address to DAC_GUARDED_BY(mu);  // retargeted on duplicate arrival
  bool done DAC_GUARDED_BY(mu) = false;
};
}  // namespace detail

class ServiceLoop {
 public:
  using Handler = std::function<void(const Request&, Responder&)>;
  using TickFn = std::function<void()>;

  ServiceLoop(vnet::Endpoint& ep, ServiceConfig config,
              MetricsRegistry* metrics = nullptr);
  ~ServiceLoop();

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  // Registration happens before run(); the dispatch table is immutable after.
  void on(MsgType type, ExecClass klass, Handler handler);

  // Periodic work on the loop thread (heartbeats, walltime enforcement).
  // Ticks fire between requests and while idle, never concurrently with a
  // mutating handler.
  void add_tick(std::chrono::milliseconds interval, TickFn fn);

  // One-shot work on the loop thread once the clock reaches `at`, fired like
  // a tick. Only the loop thread may arm or cancel timers: kMutating
  // handlers, ticks and other timers.
  struct TimerId {
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq = 0;
    auto operator<=>(const TimerId&) const = default;
  };
  TimerId add_timer(std::chrono::steady_clock::time_point at, TickFn fn);
  // Disarms a timer; a no-op once it fired.
  void cancel_timer(const TimerId& id);

  // Serves until the endpoint is closed and drained. The kConcurrent lane is
  // joined before run() returns.
  void run();

  [[nodiscard]] vnet::Endpoint& endpoint() const { return ep_; }
  // Requests answered from the dedup cache or retargeted while pending.
  [[nodiscard]] std::uint64_t deduped() const {
    return deduped_.load(std::memory_order_relaxed);
  }

 private:
  friend class Responder;

  struct Entry {
    ExecClass klass{};
    Handler fn;
  };
  struct Work {
    Request req;
    const Entry* entry = nullptr;
    std::shared_ptr<detail::ResponderState> st;
  };
  struct Tick {
    std::chrono::milliseconds interval{};
    TickFn fn;
    std::chrono::steady_clock::time_point last;
  };

  void serve(vnet::Message msg);
  void execute(Work work);
  // Sends the reply for `st` and records it in the dedup cache. Called from
  // Responder; `payload` is a full reply envelope.
  void finish_reply(detail::ResponderState& st, const util::Bytes& payload,
                    const vnet::Address& to, bool error);
  void forget_pending(std::uint64_t id);
  // Time until the next tick or timer is due (nullopt: none armed).
  std::optional<std::chrono::milliseconds> next_tick_timeout();
  void fire_due_ticks();

  vnet::Endpoint& ep_;
  ServiceConfig cfg_;
  MetricsRegistry* metrics_ = nullptr;

  std::map<std::uint32_t, Entry> handlers_;
  std::vector<Tick> ticks_;
  std::map<TimerId, TickFn> timers_;  // loop thread only; soonest first
  std::uint64_t next_timer_seq_ = 0;
  std::thread::id loop_thread_;

  Mutex dedup_mu_{"svc.dedup"};
  std::unordered_map<std::uint64_t, util::Bytes> completed_
      DAC_GUARDED_BY(dedup_mu_);
  std::deque<std::uint64_t> completed_order_ DAC_GUARDED_BY(dedup_mu_);
  std::unordered_map<std::uint64_t, std::weak_ptr<detail::ResponderState>>
      pending_ DAC_GUARDED_BY(dedup_mu_);
  std::atomic<std::uint64_t> deduped_{0};

  // kConcurrent lane: one thread, created in run() iff any handler was
  // registered under kConcurrent. Serialized among its own requests.
  util::BlockingQueue<Work> conc_queue_;
  std::thread conc_worker_;
};

}  // namespace dac::svc
