// Runtime::await_port: the port wait behind AC_Init and comm_connect wakes on
// the publish itself, honours kills, and still times out. Every test runs
// under both clock modes; in DiscreteEvent mode the wake instant is exact.
#include "minimpi/runtime.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "harness/clock_mode.hpp"
#include "minimpi/proc.hpp"
#include "mpi_test_util.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace dac::minimpi {
namespace {

using namespace std::chrono_literals;
using simtime::Mode;

class AwaitPortTest : public ::testing::TestWithParam<Mode> {
 protected:
  [[nodiscard]] bool virtual_clock() const {
    return GetParam() == Mode::kDiscreteEvent;
  }

  dac::testing::ClockModeGuard mode_{GetParam()};  // first: all runs on it
  vnet::Cluster cluster_{testing::fast_topology(3)};
  Runtime runtime_{cluster_};
};

TEST_P(AwaitPortTest, WakesAtThePublishInstant) {
  const vnet::Address published{2, 77};
  // 1.234 ms from now is off every power-of-two poll grid the old loop used.
  const auto publish_at = simtime::now() + 1234us;
  std::atomic<simtime::TimePoint::rep> woke{0};
  std::atomic<simtime::TimePoint::rep> published_at{0};
  std::optional<vnet::Address> got;

  auto waiter = cluster_.node(0).spawn({.name = "waiter"},
                                       [&](vnet::Process& p) {
    got = runtime_.await_port("ready", std::nullopt, p);
    woke = simtime::now().time_since_epoch().count();
  });
  auto publisher = cluster_.node(1).spawn({.name = "publisher"},
                                          [&](vnet::Process&) {
    simtime::sleep_until(publish_at);
    published_at = simtime::now().time_since_epoch().count();
    runtime_.publish_port("ready", published);
  });
  waiter->join();
  publisher->join();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, published);
  EXPECT_GE(woke.load(), published_at.load());
  if (virtual_clock()) {
    EXPECT_EQ(woke.load(), published_at.load());
  }
}

TEST_P(AwaitPortTest, ReturnsAtOnceWhenAlreadyBound) {
  const auto name = runtime_.open_port({1, 5});
  std::optional<vnet::Address> got;
  auto waiter = cluster_.node(0).spawn({.name = "waiter"},
                                       [&](vnet::Process& p) {
    got = runtime_.await_port(name, simtime::now(), p);
  });
  waiter->join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (vnet::Address{1, 5}));
}

TEST_P(AwaitPortTest, StopMidWaitThrowsStopped) {
  std::atomic<bool> stopped{false};
  std::atomic<bool> returned{false};
  Latch entered(1);  // a stop before the entry runs would skip it entirely
  auto waiter = cluster_.node(0).spawn({.name = "waiter"},
                                       [&](vnet::Process& p) {
    entered.count_down();
    try {
      (void)runtime_.await_port("never", std::nullopt, p);
      returned = true;
    } catch (const util::StoppedError&) {
      stopped = true;
    }
  });
  const auto kill_at = simtime::now() + 2ms;
  auto killer = cluster_.node(1).spawn({.name = "killer"},
                                       [&](vnet::Process&) {
    entered.wait();
    simtime::sleep_until(kill_at);
    waiter->request_stop();
  });
  killer->join();
  waiter->join();
  EXPECT_TRUE(stopped);
  EXPECT_FALSE(returned);
}

TEST_P(AwaitPortTest, ConnectToUnpublishedPortTimesOut) {
  constexpr auto kTimeout = 20ms;
  std::atomic<bool> threw{false};
  std::atomic<simtime::Duration::rep> waited{0};
  runtime_.register_executable("connector", [&](Proc& p, const util::Bytes&) {
    const auto start = simtime::now();
    try {
      (void)p.comm_connect("nobody-home", p.self(), 0, kTimeout);
    } catch (const util::ProtocolError&) {
      threw = true;
    }
    waited = (simtime::now() - start).count();
  });
  runtime_.launch_world("connector", {0}, {}).join();
  EXPECT_TRUE(threw);
  const simtime::Duration elapsed{waited.load()};
  EXPECT_GE(elapsed, kTimeout);
  if (virtual_clock()) {
    EXPECT_EQ(elapsed, kTimeout);
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, AwaitPortTest, dac::testing::kBothClocks,
                         dac::testing::clock_mode_name);

}  // namespace
}  // namespace dac::minimpi
