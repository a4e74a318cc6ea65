#include "simtime/clock.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

namespace dac::simtime {
namespace {

// Virtual time starts well away from zero so subtracting intervals from
// "now" (heartbeat staleness math, walltime checks) never wraps a
// default-constructed time_point, and comfortably above any real steady
// reading a freshly booted CI machine hands out before the mode switch.
constexpr std::int64_t kVirtualEpochNs = 3'600'000'000'000'000;  // 1000 h

// Rescue cadence when no actor is registered at all (plain unit tests):
// nothing can ever look quiescent, so fire pending deadlines quickly.
constexpr std::chrono::milliseconds kUnattendedStall{2};

// Liveness backstop: if unregistered threads keep the activity epoch churning
// forever (so the stall heuristic never sees a quiet window), advance anyway
// after this much real time without an advance. Registered-actor simulations
// advance far more often than this, so it never perturbs them.
constexpr std::chrono::milliseconds kChurnBackstop{250};

// Stall-rescue steps in virtual time (see advancer_main).
constexpr std::int64_t kRescueStepNs = 1'000'000;              // 1 ms
constexpr std::int64_t kMaxRescueStepNs = 3'600'000'000'000;  // 1 h

std::int64_t to_ns(TimePoint tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

TimePoint from_ns(std::int64_t ns) {
  return TimePoint(
      std::chrono::duration_cast<Duration>(std::chrono::nanoseconds(ns)));
}

// Per-thread actor state. `block_depth` tracks nested clock-visible blocking
// (an ExternalWaitScope around a condition wait) and `counted` whether this
// thread currently contributes to the clock's blocked_ tally; the advancer
// flips `counted` off at fire time — under the clock lock — so a woken actor
// counts as runnable before it even gets CPU.
struct ThreadState {
  bool is_actor = false;
  bool counted = false;  // guarded by the clock's mu_ in DiscreteEvent mode
  int block_depth = 0;
  // This (non-actor) thread owes runnable debt: the clock woke it and it has
  // not blocked again yet. Guarded by the clock's mu_; see Clock::debt_.
  bool in_debt = false;
  ~ThreadState();
};

thread_local ThreadState t_state;

ThreadState::~ThreadState() {
  // A thread exiting while in debt would otherwise pin the clock into its
  // stall-rescue path forever.
  if (in_debt) Clock::instance().clear_thread_debt();
}

}  // namespace

struct Clock::Waiter {
  std::condition_variable* cv = nullptr;
  std::mutex* mu = nullptr;
  ThreadState* owner = nullptr;
  std::optional<std::int64_t> deadline_ns;
  std::uint64_t seq = 0;
  bool actor = false;          // owning thread is a registered actor
  bool counted_depth = false;  // begin_wait bumped owner->block_depth
  bool prefired = false;       // deadline already due at registration
  // All guarded by the clock's mu_.
  bool fired = false;
  bool notify_done = false;
  bool in_queue = false;
};

Clock& Clock::instance() {
  // Leaky: the advancer thread (started lazily on the first DiscreteEvent
  // transition) must never race static destruction.
  static Clock* g = new Clock;
  return *g;
}

Clock::Clock() {
  joins_.reserve(64);
  if (const char* e = std::getenv("DACSCHED_VTIME_STALL_MS");
      e != nullptr && *e != '\0') {
    stall_ = std::chrono::milliseconds(std::max(1, std::atoi(e)));
  }
  if (const char* e = std::getenv("DACSCHED_CLOCK");
      e != nullptr && *e != '\0') {
    const std::string v(e);
    if (v == "virtual" || v == "discrete" || v == "de") {
      set_mode(Mode::kDiscreteEvent);
    }
  }
}

void Clock::set_mode(Mode m) {
  std::unique_lock<std::mutex> lk(mu_);
  if (mode_.load(std::memory_order_relaxed) == m) return;
  // Legal only between simulations: nothing may be parked on the clock.
  if (!deadlines_.empty() || blocked_ != 0) {
    std::abort();  // set_mode during an active simulation is a program bug
  }
  if (m == Mode::kDiscreteEvent) {
    // Pin virtual now monotonically past every real reading handed out so
    // far, so stopwatches and link floors never see time move backwards
    // across the switch.
    const std::int64_t real =
        to_ns(std::chrono::steady_clock::now());
    now_ns_.store(std::max(kVirtualEpochNs, real + 1'000'000'000),
                  std::memory_order_release);
    last_advance_real_ = std::chrono::steady_clock::now();
    ensure_advancer_locked();
  }
  mode_.store(m, std::memory_order_release);
  ++activity_epoch_;
  internal_cv_.notify_all();
}

TimePoint Clock::now() const {
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) {
    return std::chrono::steady_clock::now();
  }
  return from_ns(now_ns_.load(std::memory_order_acquire));
}

ClockStats Clock::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  return stats_;
}

// ---- actors ----------------------------------------------------------------

void Clock::actor_started() {
  std::unique_lock<std::mutex> lk(mu_);
  ++actors_;
  ++activity_epoch_;
}

void Clock::actor_adopt() { t_state.is_actor = true; }

void Clock::actor_finished() {
  t_state.is_actor = false;
  std::unique_lock<std::mutex> lk(mu_);
  --actors_;
  ++activity_epoch_;
  // One fewer runnable thread can make the rest quiescent.
  if (quiescent_locked()) internal_cv_.notify_all();
}

bool Clock::current_thread_is_actor() const { return t_state.is_actor; }

bool Clock::quiescent_locked() const {
  // The exit-hold term: a joined thread has finished but its joiner has not
  // resumed yet — an invisible wake-in-flight, same reason debt_ gates. A
  // join without a target might be on any held thread.
  if (exit_holds_ > 0 && external_waiters_ > joins_.size()) return false;
  for (const auto* exited : joins_) {
    if (exited->load(std::memory_order_acquire)) return false;
  }
  return actors_ > 0 && blocked_ >= actors_ && debt_ == 0 &&
         !deadlines_.empty();
}

void Clock::exit_hold() {
  std::unique_lock<std::mutex> lk(mu_);
  ++exit_holds_;
  ++activity_epoch_;
}

void Clock::exit_release() {
  std::unique_lock<std::mutex> lk(mu_);
  if (exit_holds_ > 0) --exit_holds_;  // clamp: hold may predate a mode switch
  ++activity_epoch_;
  if (quiescent_locked()) internal_cv_.notify_all();
}

void Clock::clear_thread_debt() {
  std::unique_lock<std::mutex> lk(mu_);
  --debt_;
  ++activity_epoch_;
  if (quiescent_locked()) internal_cv_.notify_all();
}

// ---- waiter protocol -------------------------------------------------------

Clock::WaiterPtr Clock::begin_wait(std::condition_variable* cv,
                                   std::mutex* native_mu,
                                   std::optional<TimePoint> deadline,
                                   bool* prefired) {
  *prefired = false;
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) return nullptr;
  // Untimed non-actor waits are registered too (in by_cv_ only — nothing to
  // fire): the thread does not hold time back while parked, but when an
  // application notify wakes it, on_notify must be able to hand it runnable
  // debt. Otherwise a raw std::thread server blocked in recv() would be
  // invisible at wake time and the clock could advance past the work the
  // delivery just triggered.
  auto w = std::make_shared<Waiter>();
  w->cv = cv;
  w->mu = native_mu;
  w->owner = &t_state;
  w->actor = t_state.is_actor;

  std::unique_lock<std::mutex> lk(mu_);
  ++activity_epoch_;
  if (deadline.has_value()) {
    const std::int64_t dl = to_ns(*deadline);
    if (dl <= now_ns_.load(std::memory_order_relaxed)) {
      // Already due: mimic a real wait_until with a past deadline, which
      // returns timeout immediately instead of parking until quiescence.
      w->prefired = true;
      w->fired = true;
      w->notify_done = true;
      *prefired = true;
      return w;
    }
    w->deadline_ns = dl;
    w->seq = ++seq_;
    w->in_queue = true;
    const bool was_empty = deadlines_.empty();
    deadlines_.emplace(std::make_pair(dl, w->seq), w);
    // Wake the advancer out of its idle (no-deadline) sleep; quiescence
    // wakes are handled below.
    if (was_empty) internal_cv_.notify_all();
  }
  by_cv_.emplace(cv, w.get());
  ++t_state.block_depth;
  w->counted_depth = true;
  if (w->actor && !t_state.counted) {
    t_state.counted = true;
    ++blocked_;
  }
  if (t_state.in_debt) {
    // Blocking again pays off the debt from the wake that made us runnable.
    t_state.in_debt = false;
    --debt_;
  }
  if (quiescent_locked()) internal_cv_.notify_all();
  return w;
}

void Clock::end_wait(const WaiterPtr& w) {
  if (w == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  ++activity_epoch_;
  if (w->in_queue) {
    deadlines_.erase(std::make_pair(*w->deadline_ns, w->seq));
    w->in_queue = false;
  }
  for (auto [it, last] = by_cv_.equal_range(w->cv); it != last; ++it) {
    if (it->second == w.get()) {
      by_cv_.erase(it);
      break;
    }
  }
  // If the advancer picked this waiter, it may still be about to touch the
  // cv; wait for it to finish so the caller can safely destroy the cv.
  while (w->fired && !w->notify_done) internal_cv_.wait(lk);
  if (w->counted_depth) {
    --t_state.block_depth;
    if (t_state.counted && t_state.block_depth == 0) {
      t_state.counted = false;
      --blocked_;
    } else if (w->actor && !t_state.counted && t_state.block_depth > 0) {
      // Fired while nested inside an outer clock-visible scope (a timed wait
      // under an ExternalWaitScope): the outer scope still stands, so the
      // thread counts as blocked again.
      t_state.counted = true;
      ++blocked_;
      if (quiescent_locked()) internal_cv_.notify_all();
    }
    if (!w->actor && t_state.block_depth == 0 && !t_state.in_debt) {
      // A non-actor leaving a registered wait is runnable but invisible;
      // carry debt until it blocks again (or exits) so the advancer cannot
      // race past the work it is about to do. Fired waiters already got
      // their debt assigned at fire time — this covers application notifies.
      t_state.in_debt = true;
      ++debt_;
    }
  }
}

void Clock::on_notify(std::condition_variable* cv) {
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) return;
  std::unique_lock<std::mutex> lk(mu_);
  ++activity_epoch_;
  for (auto [it, last] = by_cv_.equal_range(cv); it != last; ++it) {
    Waiter* w = it->second;
    // Same transfer advance_locked performs for clock-fired waiters: the
    // notified thread is runnable from this instant, even before it gets
    // CPU. An actor comes off the blocked tally; a non-actor takes on
    // runnable debt. Waiters the native notify does not actually wake were
    // made "runnable" spuriously — they re-block and re-count on the next
    // trip through their predicate loop (CondVar wakes all its waiters in
    // DiscreteEvent mode for exactly this reason).
    if (w->actor) {
      if (w->owner->counted) {
        w->owner->counted = false;
        --blocked_;
      }
    } else if (!w->owner->in_debt) {
      w->owner->in_debt = true;
      ++debt_;
    }
  }
}

void Clock::external_block_begin(const std::atomic<bool>* joined_exited) {
  std::unique_lock<std::mutex> lk(mu_);
  // Counted in every mode so pairing survives mode switches; arms the
  // exit-hold quiescence gate (see exit_hold()).
  ++external_waiters_;
  if (joined_exited != nullptr) joins_.push_back(joined_exited);
  ++activity_epoch_;
  if (!t_state.is_actor) {
    // A non-actor about to block natively (a join) is not runnable: pay off
    // any debt so the advancer is free to fire the deadlines the joined
    // thread may be sleeping on.
    if (t_state.in_debt) {
      t_state.in_debt = false;
      --debt_;
    }
    if (quiescent_locked()) internal_cv_.notify_all();
    return;
  }
  ++t_state.block_depth;  // kept balanced across mode switches
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) return;
  if (!t_state.counted) {
    t_state.counted = true;
    ++blocked_;
    if (quiescent_locked()) internal_cv_.notify_all();
  }
}

void Clock::external_block_end(const std::atomic<bool>* joined_exited) {
  std::unique_lock<std::mutex> lk(mu_);
  --external_waiters_;
  if (joined_exited != nullptr) {
    const auto it = std::find(joins_.begin(), joins_.end(), joined_exited);
    *it = joins_.back();
    joins_.pop_back();
  }
  ++activity_epoch_;
  if (!t_state.is_actor) {
    // Runnable again; restore the debt so the invariant "the clock never
    // advances past a thread it knows is awake" keeps holding.
    if (mode_.load(std::memory_order_acquire) == Mode::kDiscreteEvent &&
        !t_state.in_debt) {
      t_state.in_debt = true;
      ++debt_;
    }
    return;
  }
  --t_state.block_depth;
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) return;
  if (t_state.counted && t_state.block_depth == 0) {
    t_state.counted = false;
    --blocked_;
  }
}

// ---- the advancer ----------------------------------------------------------

void Clock::ensure_advancer_locked() {
  if (advancer_running_) return;
  advancer_running_ = true;
  advancer_ = std::thread([this] { advancer_main(); });
}

void Clock::advancer_main() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (mode_.load(std::memory_order_relaxed) != Mode::kDiscreteEvent) {
      internal_cv_.wait(lk);
      continue;
    }
    if (quiescent_locked()) {
      advance_locked(lk);
      continue;
    }
    if (deadlines_.empty()) {
      internal_cv_.wait(lk);
      continue;
    }
    // Deadlines exist but someone looks runnable. Wait for a state change;
    // if none arrives for a full stall window, the runnable threads are
    // invisible to the clock (an unregistered test thread, native blocking
    // without an ExternalWaitScope) — advance anyway. With no actors at all
    // the stall shrinks: quiescence is undetectable, so short timed waits in
    // plain unit tests should not each cost a long real pause.
    const std::uint64_t epoch = activity_epoch_;
    internal_cv_.wait_for(lk, actors_ == 0 ? kUnattendedStall : stall_);
    if (mode_.load(std::memory_order_relaxed) != Mode::kDiscreteEvent ||
        deadlines_.empty()) {
      continue;
    }
    if (quiescent_locked()) continue;  // re-evaluate at loop top
    const auto real_now =
        std::chrono::steady_clock::now();
    if (activity_epoch_ == epoch) {
      // A stall cannot tell a thread blocked where the clock cannot see
      // from one merely starved of CPU on a loaded host, and the earliest
      // deadline may be that thread's own timeout. So step: a short one
      // after any activity, doubling while nothing stirs, which reaches a
      // far deadline in a few dozen rescues without skipping a starved
      // thread past it.
      rescue_step_ns_ = rescue_epoch_ == activity_epoch_
                            ? std::min(2 * rescue_step_ns_, kMaxRescueStepNs)
                            : kRescueStepNs;
      advance_locked(lk, now_ns_.load(std::memory_order_relaxed) +
                             rescue_step_ns_);
      rescue_epoch_ = activity_epoch_;
    } else if (real_now - last_advance_real_ > kChurnBackstop) {
      advance_locked(lk);
    }
  }
}

void Clock::advance_locked(std::unique_lock<std::mutex>& lk,
                           std::int64_t limit_ns) {
  const std::int64_t target =
      std::min(deadlines_.begin()->first.first, limit_ns);
  if (target > now_ns_.load(std::memory_order_relaxed)) {
    now_ns_.store(target, std::memory_order_release);
  }
  const std::int64_t now = now_ns_.load(std::memory_order_relaxed);
  std::vector<WaiterPtr> due;
  while (!deadlines_.empty() && deadlines_.begin()->first.first <= now) {
    WaiterPtr w = deadlines_.begin()->second;
    deadlines_.erase(deadlines_.begin());
    w->in_queue = false;
    w->fired = true;
    if (w->actor && w->owner->counted) {
      // Runnable from this instant, even before the thread gets CPU —
      // otherwise the very next quiescence check would advance again and
      // race ahead of work scheduled at this timestamp.
      w->owner->counted = false;
      --blocked_;
    } else if (!w->actor && !w->owner->in_debt) {
      // Same rule for non-actors, expressed as debt: the woken thread gates
      // further advances until it blocks again or exits.
      w->owner->in_debt = true;
      ++debt_;
    }
    due.push_back(std::move(w));
  }
  ++stats_.advances;
  stats_.waiters_fired += due.size();
  ++activity_epoch_;
  last_advance_real_ =
      std::chrono::steady_clock::now();
  lk.unlock();
  for (const auto& w : due) {
    // The waiter held w->mu from registration until the native wait released
    // it, so acquiring the mutex here proves the waiter is parked (or has
    // already been woken by an application notify, in which case its
    // end_wait blocks on notify_done until we are done with the cv).
    // Holding no other lock, so no ordering cycle can form.
    { std::lock_guard<std::mutex> g(*w->mu); }
    w->cv->notify_all();
  }
  lk.lock();
  for (const auto& w : due) w->notify_done = true;
  if (!due.empty()) internal_cv_.notify_all();
}

// ---- sleeps ----------------------------------------------------------------

void Clock::sleep_for(Duration d) {
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) {
    if (d > Duration::zero()) {
      std::this_thread::sleep_for(d);
    }
    return;
  }
  sleep_until(now() + d);
}

void Clock::sleep_until(TimePoint tp) {
  if (mode_.load(std::memory_order_acquire) == Mode::kRealTime) {
    std::this_thread::sleep_until(tp);
    return;
  }
  // A private parking spot per thread: nothing but the clock ever notifies
  // it, so the only wake sources are the fire we asked for and spurious
  // wakeups (handled by the loop).
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
  };
  thread_local Slot slot;
  std::unique_lock<std::mutex> lk(slot.mu);
  while (now() < tp) {
    bool prefired = false;
    WaiterPtr w = begin_wait(&slot.cv, &slot.mu, tp, &prefired);
    if (w == nullptr) return;  // mode flipped underneath us; treat as done
    if (!prefired) slot.cv.wait(lk);
    lk.unlock();
    end_wait(w);
    lk.lock();
  }
}

// ---- ActorScope ------------------------------------------------------------

ActorScope::ActorScope() {
  auto& c = Clock::instance();
  if (c.current_thread_is_actor()) return;
  c.actor_started();
  c.actor_adopt();
  adopted_ = true;
}

ActorScope::~ActorScope() {
  if (adopted_) Clock::instance().actor_finished();
}

}  // namespace dac::simtime
