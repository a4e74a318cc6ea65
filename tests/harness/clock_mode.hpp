// Clock-mode helpers for tests that run one body under both simtime modes:
//
//   class MyTest : public ::testing::TestWithParam<simtime::Mode> {
//     dac::testing::ClockModeGuard mode_{GetParam()};  // first member
//     ...
//   };
//   INSTANTIATE_TEST_SUITE_P(Clocks, MyTest, dac::testing::kBothClocks,
//                            dac::testing::clock_mode_name);
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "simtime/clock.hpp"

namespace dac::testing {

// Switches the process-wide clock for one scope and restores the ambient
// mode (whatever DACSCHED_CLOCK picked) afterwards. Construct it before
// anything that starts threads on the clock.
class ClockModeGuard {
 public:
  explicit ClockModeGuard(simtime::Mode mode)
      : prev_(simtime::Clock::instance().mode()) {
    if (prev_ != mode) simtime::Clock::instance().set_mode(mode);
  }
  ~ClockModeGuard() {
    if (simtime::Clock::instance().mode() != prev_) {
      simtime::Clock::instance().set_mode(prev_);
    }
  }
  ClockModeGuard(const ClockModeGuard&) = delete;
  ClockModeGuard& operator=(const ClockModeGuard&) = delete;

 private:
  simtime::Mode prev_;
};

inline const auto kBothClocks = ::testing::Values(
    simtime::Mode::kRealTime, simtime::Mode::kDiscreteEvent);

inline std::string clock_mode_name(
    const ::testing::TestParamInfo<simtime::Mode>& info) {
  return info.param == simtime::Mode::kRealTime ? "RealTime"
                                                : "DiscreteEvent";
}

}  // namespace dac::testing
