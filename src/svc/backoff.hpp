// Exponential backoff with optional jitter, behind the retransmissions of
// svc::Caller and the Maui scheduler (RetryPolicy::backoff). Waits for an event do not poll: port waits block on the
// port registry (minimpi::Runtime::await_port) and job waits are one held
// WAIT_JOB request.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "simtime/clock.hpp"

namespace dac::svc {

struct BackoffPolicy {
  std::chrono::microseconds initial{100};
  double multiplier = 2.0;
  std::chrono::microseconds cap{5000};
  // Fraction in [0, 1): each delay is scaled by a uniform factor in
  // [1 - jitter, 1 + jitter] so synchronized retriers desynchronize.
  double jitter = 0.0;
};

class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy, std::uint64_t seed = 1)
      : policy_(policy), next_(policy.initial), state_(seed | 1) {}

  // Returns the next delay and advances the schedule.
  std::chrono::microseconds next() {
    auto delay = next_;
    const auto grown = std::chrono::microseconds(static_cast<long long>(
        static_cast<double>(next_.count()) * policy_.multiplier));
    next_ = std::min(std::max(grown, next_), policy_.cap);
    if (policy_.jitter > 0.0) {
      const double scale = 1.0 + policy_.jitter * (2.0 * uniform() - 1.0);
      delay = std::chrono::microseconds(std::max<long long>(
          1, static_cast<long long>(
                 static_cast<double>(delay.count()) * scale)));
    }
    return delay;
  }

  void sleep() { simtime::sleep_for(next()); }

  void reset() { next_ = policy_.initial; }

 private:
  // xorshift64* — deterministic per seed, no global RNG state.
  double uniform() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    const auto bits = (state_ * 0x2545F4914F6CDD1Dull) >> 11;
    return static_cast<double>(bits) / static_cast<double>(1ull << 53);
  }

  BackoffPolicy policy_;
  std::chrono::microseconds next_;
  std::uint64_t state_;
};

}  // namespace dac::svc
