// The single time authority for the whole tree. Every layer that needs "now",
// a sleep, or a timed wait goes through dac::simtime — never through ambient
// std::chrono calls (the analyzer's raw-clock rule enforces this).
//
// Two interchangeable backends:
//
//   * RealTime (default): now() is std::chrono::steady_clock::now(), sleeps
//     really sleep, timed waits really time out. Zero-overhead passthrough —
//     the pre-existing behavior of the tree.
//
//   * DiscreteEvent: virtual time. now() reads a process-wide virtual clock
//     that only moves when every registered *actor* thread is quiescent
//     (blocked in a clock-visible wait). At that instant the clock
//     fast-forwards to the earliest registered deadline — message delivery,
//     heartbeat tick, scheduler poll, backoff expiry, gpusim kernel
//     completion, walltime limit — and wakes the waiters that became due.
//     A scenario-second costs microseconds of wall time, which is what lets
//     examples/bigsim run 1,000-node topologies in seconds.
//
// The waiter protocol (docs/SIMTIME.md has the full contract):
//
//   1. A thread about to block calls begin_wait(cv, native_mu, deadline)
//      *while holding native_mu*, then enters the native cv wait (which
//      atomically releases the mutex). Because the waiter holds the mutex
//      continuously from registration to wait entry, the clock can prove the
//      waiter is inside the wait by briefly acquiring that mutex before
//      notifying — no missed-wakeup window.
//   2. The advancer thread (the only thread that moves virtual time) fires a
//      due waiter by lock(mu)/unlock, then cv->notify_all(). It holds no
//      other lock while doing so, so no lock-order cycle can form.
//   3. The waiter, after the native wait returns, RELEASES the mutex and
//      calls end_wait(), which synchronizes with any in-flight fire (the
//      clock may still be about to touch the cv). Only then may the waiter
//      destroy the condition variable.
//
// Quiescence accounting: threads that participate in the simulation register
// as actors (ActorScope, or actor_started()/adopt()/finished() around
// std::thread creation). The clock advances when every actor is blocked in a
// clock-visible wait. Native blocking the clock cannot see (thread joins) is
// bracketed with ExternalWaitScope. Threads that never register still get
// their timed waits fired — their deadlines join the event queue — they just
// do not hold time back. A stall-rescue timer (DACSCHED_VTIME_STALL_MS, 50ms
// default) advances anyway when the clock has seen no activity, so a lone
// unregistered test thread cannot freeze virtual time.
//
// This file deliberately depends on nothing else in the tree (util's own
// primitives are built on top of it), so its internals use raw std::mutex /
// std::condition_variable and real steady_clock reads — src/simtime/ is the
// one path the analyzer exempts from the raw-sync and raw-clock rules.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dac::simtime {

enum class Mode {
  kRealTime,
  kDiscreteEvent,
};

using TimePoint = std::chrono::steady_clock::time_point;
using Duration = std::chrono::steady_clock::duration;

// Counters for BENCH_sim_scale.json and tests: how many times virtual time
// moved, and how many waiters those advances woke.
struct ClockStats {
  std::uint64_t advances = 0;
  std::uint64_t waiters_fired = 0;
};

class Clock {
 public:
  // Process-wide singleton (leaky: the advancer thread lives for the whole
  // process). First call reads DACSCHED_CLOCK=real|virtual.
  static Clock& instance();

  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  [[nodiscard]] Mode mode() const {
    return mode_.load(std::memory_order_acquire);
  }

  // Switches backends. Only legal while no waiter is registered and no actor
  // is blocked — i.e. between simulations, not during one. Entering
  // DiscreteEvent pins virtual now to a fixed epoch (monotonic past any real
  // reading handed out earlier). Switching back to RealTime mid-process is
  // legal for the clock but any stored virtual time_point (fabric link
  // floors, stopwatch starts) becomes garbage — tear simulations down first.
  void set_mode(Mode m);

  [[nodiscard]] TimePoint now() const;

  void sleep_for(Duration d);
  void sleep_until(TimePoint tp);

  [[nodiscard]] ClockStats stats() const;

  // ---- actor registry -----------------------------------------------------

  // Parent-side half of actor handoff: call *before* constructing the
  // std::thread so there is no instant where the clock undercounts runnable
  // actors. The child calls actor_adopt() first thing and actor_finished()
  // last.
  void actor_started();
  void actor_adopt();
  void actor_finished();
  [[nodiscard]] bool current_thread_is_actor() const;

  // ---- waiter protocol (used by dac::CondVar / sleep_for) -----------------

  struct Waiter;
  using WaiterPtr = std::shared_ptr<Waiter>;

  // Registers the calling thread as blocked (if it is an actor) and, when
  // `deadline` is set, queues it for fire when virtual time reaches it. Must
  // be called with *native_mu held*; the caller must enter a wait on `cv`
  // (releasing native_mu) without unlocking in between. Returns nullptr in
  // RealTime mode (caller takes the native path). If the deadline is already
  // due, *prefired is set and the caller must skip the native wait — a real
  // wait_until with a past deadline returns immediately too.
  WaiterPtr begin_wait(std::condition_variable* cv, std::mutex* native_mu,
                       std::optional<TimePoint> deadline, bool* prefired);

  // Ends a wait begun with begin_wait. Must be called *without* native_mu
  // held (the clock may need that mutex to finish an in-flight fire). Blocks
  // until any in-flight fire of this waiter has fully let go of the cv, so
  // the caller may destroy the cv afterwards.
  void end_wait(const WaiterPtr& w);

  // Called by dac::CondVar::notify_one/notify_all *before* the native notify:
  // transfers runnability to every waiter registered on `cv`, exactly as
  // advance_locked does for clock-fired waiters. Without this an application
  // notify leaves the woken thread counted as blocked until the scheduler
  // runs it — a window where the clock would wrongly see quiescence and
  // advance straight past the work the notify just triggered.
  void on_notify(std::condition_variable* cv);

  // Brackets native blocking the clock cannot observe (thread joins): the
  // calling actor counts as quiescent for the duration. A join passes the
  // flag its thread sets right before exit_hold(); see there.
  void external_block_begin(const std::atomic<bool>* joined_exited = nullptr);
  void external_block_end(const std::atomic<bool>* joined_exited = nullptr);

  // Exit-hold handshake for joined threads. A terminating actor whose thread
  // somebody will join calls exit_hold() after its last useful work; the
  // joiner calls exit_release() after the native join returns. While a join
  // waits on a thread that has exited, the clock refuses to advance: the
  // join is about to return and make the joiner runnable, but that resume
  // is invisible to the clock — without the hold, the joined thread's
  // actor_finished() can make the world look quiescent in the instant
  // before join() comes back, and the advancer jumps to a far deadline
  // (typically the joiner's own RPC timeout). A join that names its thread
  // (by exit flag) is gated by that thread alone, so threads that exit while
  // the joiner still waits on an earlier one cost nothing; a join that does
  // not is gated by any outstanding hold. A hold with no one joining does
  // not block time, so exited-but-not-yet-joined processes cost nothing.
  void exit_hold();
  void exit_release();

  // Internal: called by the thread-local state destructor when a thread that
  // still owes runnable debt (a fired non-actor waiter that never blocked
  // again) exits. Not for application use.
  void clear_thread_debt();

 private:
  Clock();
  ~Clock() = delete;  // leaky singleton

  void ensure_advancer_locked();
  void advancer_main();
  // Advances virtual time to the earliest deadline, but not past
  // `limit_ns`, and fires everything due. Called on the advancer thread
  // with `mu_` held; drops it during notify.
  void advance_locked(
      std::unique_lock<std::mutex>& lk,
      std::int64_t limit_ns = std::numeric_limits<std::int64_t>::max());
  [[nodiscard]] bool quiescent_locked() const;

  mutable std::mutex mu_;
  std::condition_variable internal_cv_;

  std::atomic<Mode> mode_{Mode::kRealTime};
  std::atomic<std::int64_t> now_ns_{0};  // virtual now (DiscreteEvent only)

  // Deadline-ordered fire queue, tie-broken by registration order so equal
  // deadlines fire deterministically. Untimed waiters only contribute to
  // blocked accounting and are woken by application notifies, never by the
  // clock.
  std::map<std::pair<std::int64_t, std::uint64_t>, WaiterPtr> deadlines_;

  // Every live registered waiter, keyed by its condition variable, so
  // on_notify can find who an application notify is about to wake. Entries
  // live from begin_wait to end_wait.
  std::unordered_multimap<std::condition_variable*, Waiter*> by_cv_;

  std::size_t actors_ = 0;   // registered simulation threads
  std::size_t blocked_ = 0;  // actors currently in a clock-visible wait
  // Runnable debt: non-actor threads known to be awake because the clock (or
  // an application notify) just woke them out of a registered wait. The clock
  // has no denominator for unregistered threads, but it *can* refuse to
  // advance while one it personally woke is still running — otherwise a test
  // driving bare fabrics with plain std::threads would see the advancer chain
  // straight through every queued deadline before the woken thread gets CPU.
  // Debt clears when the thread blocks again, or at thread exit.
  int debt_ = 0;
  // Outstanding exit_hold()s and threads inside an ExternalWaitScope. Both
  // are counted in every mode so the pairing survives mode switches; they
  // only gate quiescence together (see exit_hold above).
  int exit_holds_ = 0;
  std::size_t external_waiters_ = 0;
  // Exit flags of the threads the targeted joins among them wait for.
  // Reserved up front: registering a join does not allocate.
  std::vector<const std::atomic<bool>*> joins_;
  std::uint64_t seq_ = 0;
  std::uint64_t activity_epoch_ = 0;  // bumped on every state change
  // Stall rescue: the current step, and the epoch right after the last
  // rescue (unchanged since means nothing stirred in between).
  std::int64_t rescue_step_ns_ = 0;
  std::uint64_t rescue_epoch_ = 0;
  ClockStats stats_;
  std::chrono::milliseconds stall_{50};
  // Real timestamp of the last advance, for the churn-liveness backstop.
  std::chrono::steady_clock::time_point last_advance_real_{};
  bool advancer_running_ = false;
  std::thread advancer_;
};

// ---- convenience free functions -------------------------------------------

[[nodiscard]] inline TimePoint now() { return Clock::instance().now(); }

template <typename Rep, typename Period>
void sleep_for(const std::chrono::duration<Rep, Period>& d) {
  Clock::instance().sleep_for(
      std::chrono::duration_cast<Duration>(d));
}

inline void sleep_until(TimePoint tp) { Clock::instance().sleep_until(tp); }

// Registers the current thread as an actor for the scope's lifetime. No-op
// when the thread is already an actor (scopes nest freely) or, for
// efficiency, nothing special in RealTime mode (registration is harmless and
// keeps mode switches honest, so it is done regardless).
class ActorScope {
 public:
  ActorScope();
  ~ActorScope();
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  bool adopted_ = false;
};

// Marks the calling actor quiescent across native blocking the clock cannot
// see — a std::thread::join, a process wait. Without this, a joining actor
// looks runnable forever and virtual time stops.
class ExternalWaitScope {
 public:
  ExternalWaitScope() { Clock::instance().external_block_begin(); }
  // A join of a thread that sets `exited` right before Clock::exit_hold().
  explicit ExternalWaitScope(const std::atomic<bool>& exited)
      : exited_(&exited) {
    Clock::instance().external_block_begin(exited_);
  }
  ~ExternalWaitScope() { Clock::instance().external_block_end(exited_); }
  ExternalWaitScope(const ExternalWaitScope&) = delete;
  ExternalWaitScope& operator=(const ExternalWaitScope&) = delete;

 private:
  const std::atomic<bool>* exited_ = nullptr;
};

// Child-thread half of the actor handoff: the parent calls
// Clock::instance().actor_started() immediately before constructing the
// thread; the thread body holds one of these for its whole run.
class AdoptScope {
 public:
  AdoptScope() { Clock::instance().actor_adopt(); }
  ~AdoptScope() { Clock::instance().actor_finished(); }
  AdoptScope(const AdoptScope&) = delete;
  AdoptScope& operator=(const AdoptScope&) = delete;
};

// A std::thread that runs as a registered simulation actor: the parent
// counts the actor *before the thread exists*, so the clock cannot advance
// through the startup window where the child has not had CPU yet (a plain
// std::thread worker is invisible until its first clock-visible wait, and a
// loaded machine can delay that long enough for a quiescence check to fire a
// far deadline the worker was about to beat). The body runs under an
// AdoptScope and join() performs the exit-hold handshake, exactly like
// vnet::Process — use this for test and driver threads that participate in
// virtual time.
class ActorThread {
 public:
  ActorThread() = default;
  template <typename Fn>
  explicit ActorThread(Fn fn)
      : exited_(std::make_shared<std::atomic<bool>>(false)) {
    Clock::instance().actor_started();
    thread_ = std::thread([fn = std::move(fn), exited = exited_]() mutable {
      AdoptScope actor;
      fn();
      exited->store(true, std::memory_order_release);
      Clock::instance().exit_hold();  // released by join()
    });
  }
  ActorThread(ActorThread&&) = default;
  ActorThread& operator=(ActorThread&&) = delete;
  ActorThread(const ActorThread&) = delete;
  ActorThread& operator=(const ActorThread&) = delete;
  ~ActorThread() { join(); }

  void join() {
    if (thread_.joinable()) {
      {
        ExternalWaitScope quiescent(*exited_);  // native join, clock-invisible
        thread_.join();
      }
      Clock::instance().exit_release();
    }
  }

 private:
  std::thread thread_;
  std::shared_ptr<std::atomic<bool>> exited_;  // shared with the thread
};

}  // namespace dac::simtime
