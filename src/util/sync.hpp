// Thread-safety-annotated synchronization primitives. Every mutex in the
// codebase is a dac::Mutex, every condition variable a dac::CondVar, and
// every guarded field carries DAC_GUARDED_BY(mu_) — so Clang's
// -Wthread-safety analysis (turned on with -Werror in the clang CI job)
// proves lock discipline at compile time, while the runtime lock-order
// detector (util/lockorder.hpp) catches A/B-B/A inversions in debug builds.
// The annotation macros compile away on GCC.
//
// Raw std::mutex / std::condition_variable are banned outside this file and
// the detector's own implementation; tools/lint.py enforces that in CI.
//
// Conventions:
//   * name the mutex after what it guards, annotate every guarded field;
//   * prefer ScopedLock (RAII, non-movable); use UniqueLock only for
//     condition waits;
//   * write condition waits as explicit loops so the analysis sees the
//     guarded reads under the lock:
//       while (!ready_) cv_.wait(lock);
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <type_traits>

#include "simtime/clock.hpp"
#include "util/lockorder.hpp"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DAC_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef DAC_THREAD_ANNOTATION_
#define DAC_THREAD_ANNOTATION_(x)
#endif

#define DAC_CAPABILITY(x) DAC_THREAD_ANNOTATION_(capability(x))
#define DAC_SCOPED_CAPABILITY DAC_THREAD_ANNOTATION_(scoped_lockable)
#define DAC_GUARDED_BY(x) DAC_THREAD_ANNOTATION_(guarded_by(x))
#define DAC_PT_GUARDED_BY(x) DAC_THREAD_ANNOTATION_(pt_guarded_by(x))
#define DAC_ACQUIRED_BEFORE(...) \
  DAC_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define DAC_ACQUIRED_AFTER(...) \
  DAC_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define DAC_REQUIRES(...) \
  DAC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define DAC_ACQUIRE(...) \
  DAC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define DAC_RELEASE(...) \
  DAC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define DAC_TRY_ACQUIRE(...) \
  DAC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define DAC_EXCLUDES(...) DAC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define DAC_ASSERT_CAPABILITY(x) \
  DAC_THREAD_ANNOTATION_(assert_capability(x))
#define DAC_RETURN_CAPABILITY(x) DAC_THREAD_ANNOTATION_(lock_returned(x))
#define DAC_NO_THREAD_SAFETY_ANALYSIS \
  DAC_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace dac {

class CondVar;

// Annotated std::mutex wrapper wired into the lock-order detector. The
// optional name labels the lock in inversion reports; give distinct names to
// distinct roles ("fabric.pending", "fabric.boxes", ...).
class DAC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) : name_(name) {}
  ~Mutex() { lockorder::on_destroy(this); }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DAC_ACQUIRE() {
    // Record intent before blocking: a potential inversion is reported even
    // on schedules that do not actually deadlock.
    lockorder::on_acquire(this, name_);
    mu_.lock();
  }

  void unlock() DAC_RELEASE() {
    lockorder::on_release(this);
    mu_.unlock();
  }

  [[nodiscard]] bool try_lock() DAC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockorder::on_acquire(this, name_);
    return true;
  }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;  // NOLINT-DACSCHED(raw-sync)
  const char* name_ = "mutex";
};

// RAII lock for plain critical sections (the std::lock_guard equivalent).
class DAC_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mu) DAC_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~ScopedLock() DAC_RELEASE() { mu_->unlock(); }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex* mu_;
};

// Lock with manual unlock/relock, for condition waits and drop-the-lock
// sections (the std::unique_lock equivalent).
class DAC_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) DAC_ACQUIRE(mu) : mu_(&mu), owns_(true) {
    mu_->lock();
  }
  ~UniqueLock() DAC_RELEASE() {
    if (owns_) mu_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() DAC_ACQUIRE() {
    mu_->lock();
    owns_ = true;
  }
  void unlock() DAC_RELEASE() {
    mu_->unlock();
    owns_ = false;
  }
  [[nodiscard]] bool owns_lock() const { return owns_; }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool owns_;
};

// Condition variable over dac::Mutex. Waits keep the lock-order detector's
// held stack accurate (the mutex is released while blocked) and never hand
// an annotated lock type into std internals, so the thread-safety analysis
// sees the caller holding the capability across the wait — which is the
// truth at every instant the caller can observe.
//
// Every wait is registered with the simtime clock (simtime/clock.hpp): in
// DiscreteEvent mode a timed wait parks until virtual time reaches the
// deadline instead of really timing out, and untimed waits by actor threads
// count toward the quiescence check that lets virtual time advance. In
// RealTime mode the registration is a no-op and the native path runs
// unchanged. Either way a wait can return spuriously — which the required
// predicate loop already absorbs.
//
// There are deliberately no predicate overloads: write the loop yourself so
// guarded reads stay visible to the analysis (see file header).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept {
    auto& clk = simtime::Clock::instance();
    if (clk.mode() == simtime::Mode::kDiscreteEvent) {
      // on_notify transfers runnability to every waiter parked on this cv
      // (the clock cannot know which one the OS would pick), so wake them
      // all — spurious wakeups are part of the cv contract, and a not-due
      // waiter re-blocks and re-counts on its next predicate check.
      clk.on_notify(&cv_);
      cv_.notify_all();
      return;
    }
    cv_.notify_one();
  }
  void notify_all() noexcept {
    simtime::Clock::instance().on_notify(&cv_);
    cv_.notify_all();
  }

  void wait(UniqueLock& lock) {
    Mutex& mu = *lock.mu_;
    lockorder::on_release(&mu);
    {
      std::unique_lock<std::mutex> native(  // NOLINT-DACSCHED(raw-sync)
          mu.mu_, std::adopt_lock);
      bool prefired = false;
      const auto w = simtime::Clock::instance().begin_wait(
          &cv_, &mu.mu_, std::nullopt, &prefired);
      cv_.wait(native);
      if (w != nullptr) {
        // end_wait may block handshaking with the clock's advancer, which
        // needs this mutex — so drop it first (spurious-wakeup equivalent).
        native.unlock();
        simtime::Clock::instance().end_wait(w);
        native.lock();
      }
      native.release();  // ownership stays with `lock`
    }
    lockorder::on_acquire(&mu, mu.name_);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    Mutex& mu = *lock.mu_;
    lockorder::on_release(&mu);
    std::cv_status status;
    {
      std::unique_lock<std::mutex> native(  // NOLINT-DACSCHED(raw-sync)
          mu.mu_, std::adopt_lock);
      status = timed_wait(native, deadline);
      native.release();
    }
    lockorder::on_acquire(&mu, mu.name_);
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    return wait_until(lock, simtime::now() + timeout);
  }

 private:
  // The native wait, clock-registered. Steady-clock deadlines are simulation
  // deadlines and go through the simtime waiter protocol; any other clock
  // (none in this tree) stays native.
  template <typename Clock, typename Duration>
  std::cv_status timed_wait(
      std::unique_lock<std::mutex>& native,  // NOLINT-DACSCHED(raw-sync)
      const std::chrono::time_point<Clock, Duration>& deadline) {
    if constexpr (std::is_same_v<Clock, std::chrono::steady_clock>) {
      auto& clk = simtime::Clock::instance();
      bool prefired = false;
      const auto w = clk.begin_wait(
          &cv_, native.mutex(),
          std::chrono::time_point_cast<simtime::Duration>(deadline),
          &prefired);
      if (w != nullptr) {
        if (!prefired) cv_.wait(native);
        native.unlock();
        clk.end_wait(w);
        native.lock();
        return clk.now() >= deadline ? std::cv_status::timeout
                                     : std::cv_status::no_timeout;
      }
    }
    return cv_.wait_until(native, deadline);
  }

  std::condition_variable cv_;  // NOLINT-DACSCHED(raw-sync)
};

// A clock-visible std::latch replacement. count_down() notifies through
// dac::CondVar, so in discrete-event mode the clock hands the woken waiter
// its runnability before time can move (docs/SIMTIME.md). A native
// std::latch wake is invisible to the clock: between the wake and the
// waiter's next clock-visible action the world looks quiescent, and virtual
// time can jump a deadline the waiter was about to cancel.
class Latch {
 public:
  explicit Latch(std::ptrdiff_t count) : count_(count) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down() {
    ScopedLock lock(mu_);
    if (--count_ <= 0) cv_.notify_all();
  }

  void wait() {
    UniqueLock lock(mu_);
    while (count_ > 0) cv_.wait(lock);
  }

  void arrive_and_wait() {
    UniqueLock lock(mu_);
    if (--count_ <= 0) {
      cv_.notify_all();
      return;
    }
    while (count_ > 0) cv_.wait(lock);
  }

 private:
  Mutex mu_{"util.latch"};
  CondVar cv_;
  std::ptrdiff_t count_ DAC_GUARDED_BY(mu_);
};

}  // namespace dac
