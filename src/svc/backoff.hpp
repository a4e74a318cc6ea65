// Exponential backoff with optional jitter, and the one retransmission
// schedule every outbound call follows (RetryPolicy): svc::CallTable resends
// each unanswered request on RetryPolicy::backoff(id), whether the call is a
// Caller's, a ServiceLoop fan-out's or the Maui scheduler's. Waits for an
// event do not poll: port waits block on the port registry
// (minimpi::Runtime::await_port) and job waits are one held WAIT_JOB request.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

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

// The retransmission schedule of outbound calls. The defaults are the one
// schedule the cluster uses; tests and the single-attempt rpc::call shim
// (none()) pick another through svc::Caller.
struct RetryPolicy {
  // Total send attempts per call (1 = no retransmits).
  int max_attempts = 3;
  std::chrono::milliseconds initial_backoff{5};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{200};
  double jitter = 0.25;

  [[nodiscard]] static RetryPolicy none() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }

  // The retransmission schedule of one request, seeded by its id.
  [[nodiscard]] Backoff backoff(std::uint64_t seed) const {
    using std::chrono::microseconds;
    return Backoff(
        {.initial = std::chrono::duration_cast<microseconds>(initial_backoff),
         .multiplier = multiplier,
         .cap = std::chrono::duration_cast<microseconds>(max_backoff),
         .jitter = jitter},
        seed);
  }
};

}  // namespace dac::svc
