// Virtual-time tests: the clock contract itself, and mode equivalence at the
// fabric level — the same traffic must produce the same per-pair delivery
// order and the same fault accounting whether time is real or discrete-event.
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "faults/fault_plan.hpp"
#include "harness/clock_mode.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"
#include "vnet/fabric.hpp"

namespace dac::simtime {
namespace {

using namespace std::chrono_literals;

// Forces a clock mode for one test, restoring the ambient mode (whatever
// DACSCHED_CLOCK picked) afterwards. Both directions are exercised on
// purpose: the equivalence tests below run their RealTime leg even when the
// whole suite runs under DACSCHED_CLOCK=virtual, and vice versa.
using ModeGuard = dac::testing::ClockModeGuard;

TEST(VirtualClock, SleepAdvancesVirtualTimeExactly) {
  ModeGuard de(Mode::kDiscreteEvent);
  const auto wall0 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
  const auto v0 = now();
  sleep_for(5s);  // NOLINT-DACSCHED(sleep-poll)
  const auto v1 = now();
  const auto wall1 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
  // Virtual advance is exact — the clock jumps to the registered deadline,
  // it does not approximate it.
  EXPECT_EQ(v1 - v0, 5s);
  // Five virtual seconds must cost far less than five real ones; allow a
  // generous margin for stall-rescue on a loaded CI box.
  EXPECT_LT(wall1 - wall0, 2s);
}

TEST(VirtualClock, NowIsMonotonicAcrossModeSwitch) {
  const auto before = now();
  ModeGuard de(Mode::kDiscreteEvent);
  EXPECT_GE(now(), before);
}

TEST(VirtualClock, StatsCountAdvancesAndFires) {
  ModeGuard de(Mode::kDiscreteEvent);
  const auto s0 = Clock::instance().stats();
  sleep_for(10ms);  // NOLINT-DACSCHED(sleep-poll)
  sleep_for(10ms);  // NOLINT-DACSCHED(sleep-poll)
  const auto s1 = Clock::instance().stats();
  EXPECT_GE(s1.advances - s0.advances, 2u);
  EXPECT_GE(s1.waiters_fired - s0.waiters_fired, 2u);
}

TEST(VirtualClock, TimedWaitTimesOutAtExactVirtualDeadline) {
  ModeGuard de(Mode::kDiscreteEvent);
  dac::Mutex mu{"test.vtime"};
  dac::CondVar cv;
  const auto t0 = now();
  dac::UniqueLock lock(mu);
  const auto status = cv.wait_for(lock, 200ms);
  EXPECT_EQ(status, std::cv_status::timeout);
  EXPECT_EQ(now() - t0, 200ms);
}

TEST(VirtualClock, NotifyWakesTimedWaitBeforeDeadline) {
  ModeGuard de(Mode::kDiscreteEvent);
  dac::Mutex mu{"test.vtime"};
  dac::CondVar cv;
  bool ready = false;
  // t0 before the poker exists: the main thread is not an actor, so the
  // clock may legitimately run the poker's whole 50 ms before main gets
  // another instruction in.
  const auto t0 = now();
  Clock::instance().actor_started();
  std::thread poker([&] {
    AdoptScope actor;
    sleep_for(50ms);  // NOLINT-DACSCHED(sleep-poll)
    dac::ScopedLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    dac::UniqueLock lock(mu);
    while (!ready) {
      ASSERT_EQ(cv.wait_for(lock, 10s), std::cv_status::no_timeout);
    }
  }
  EXPECT_GE(now() - t0, 50ms);
  EXPECT_LT(now() - t0, 10s);
  {
    ExternalWaitScope quiescent;
    poker.join();
  }
}

TEST(VirtualClock, ActorsWakeInDeadlineOrder) {
  ModeGuard de(Mode::kDiscreteEvent);
  dac::Mutex mu{"test.vtime"};
  std::vector<int> order;
  std::vector<std::thread> sleepers;
  const int delays_ms[] = {30, 10, 20};
  // Register all three actors before spawning any: otherwise the clock can
  // run sleeper 0 to completion while main (not an actor) is still between
  // loop iterations, and the wake order degenerates to spawn order.
  for (int i = 0; i < 3; ++i) Clock::instance().actor_started();
  for (int i = 0; i < 3; ++i) {
    sleepers.emplace_back([&, i] {
      AdoptScope actor;
      sleep_for(std::chrono::milliseconds(delays_ms[i]));  // NOLINT-DACSCHED(sleep-poll)
      dac::ScopedLock lock(mu);
      order.push_back(i);
    });
  }
  {
    ExternalWaitScope quiescent;
    for (auto& t : sleepers) t.join();
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);  // 10 ms
  EXPECT_EQ(order[1], 2);  // 20 ms
  EXPECT_EQ(order[2], 0);  // 30 ms
}

// ---- fabric-level mode equivalence -----------------------------------------

util::Bytes payload(std::size_t n) { return util::Bytes(n); }

// In DiscreteEvent mode no virtual time passes while the sender runs, so
// delivery timing is exact arithmetic on the network model.
TEST(FabricVirtualTime, DeliveryChargesExactModelDelay) {
  ModeGuard de(Mode::kDiscreteEvent);
  vnet::NetworkModel m;
  m.latency = std::chrono::microseconds(30000);
  m.bytes_per_second = 1e6;  // 50 KB -> exactly 50 ms of wire time
  vnet::Fabric fabric(m);
  auto box = std::make_shared<vnet::Mailbox>();
  fabric.register_mailbox(vnet::Address{1, 0}, box);

  const auto t0 = now();
  fabric.send(vnet::Message{vnet::Address{0, 0}, vnet::Address{1, 0}, 1,
                            payload(50000)});
  ASSERT_TRUE(box->pop_for(5s).has_value());
  EXPECT_EQ(now() - t0, 30ms + 50ms);
  fabric.shutdown();
}

TEST(FabricVirtualTime, LinkSerializationIsExact) {
  ModeGuard de(Mode::kDiscreteEvent);
  vnet::NetworkModel m;
  m.latency = std::chrono::microseconds(1000);
  m.bytes_per_second = 1e6;
  vnet::Fabric fabric(m);
  auto box = std::make_shared<vnet::Mailbox>();
  fabric.register_mailbox(vnet::Address{1, 0}, box);

  // Two messages on one pair: the second waits for the first's wire time
  // (per-pair FIFO over a stream transport), so the pair is serialized and
  // the arrival instants are exact.
  const auto t0 = now();
  fabric.send(vnet::Message{vnet::Address{0, 0}, vnet::Address{1, 0}, 1,
                            payload(10000)});  // 10 ms wire
  fabric.send(vnet::Message{vnet::Address{0, 0}, vnet::Address{1, 0}, 2,
                            payload(10000)});
  ASSERT_TRUE(box->pop_for(5s).has_value());
  const auto first = now() - t0;
  ASSERT_TRUE(box->pop_for(5s).has_value());
  const auto second = now() - t0;
  EXPECT_EQ(first, 1ms + 10ms);
  EXPECT_EQ(second, 1ms + 20ms);
  fabric.shutdown();
}

// One run of seeded faulty traffic through a fabric. Sends come from a
// single thread, so the fault plan's decision stream is a pure function of
// the seed — which is what makes the two modes comparable.
struct TrafficResult {
  // Arrival order projected per source node (cross-pair interleaving is
  // timing-dependent in RealTime mode; per-pair FIFO is the guarantee).
  std::vector<std::vector<std::uint32_t>> per_source;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_injected = 0;
  std::uint64_t duplicated = 0;
  std::vector<faults::FaultEvent> fault_trace;
};

TrafficResult run_seeded_traffic(Mode mode, std::uint64_t seed) {
  ModeGuard guard(mode);
  TrafficResult out;
  vnet::NetworkModel m;
  m.latency = std::chrono::microseconds(100);
  m.bytes_per_second = 1e8;
  vnet::Fabric fabric(m);
  faults::FaultRates rates;
  rates.drop = 0.1;
  rates.duplicate = 0.1;
  rates.delay = 0.2;
  rates.max_extra_delay = std::chrono::microseconds(500);
  auto plan = std::make_shared<faults::FaultPlan>(seed, rates);
  fabric.set_fault_injector(plan);

  const vnet::Address dst{3, 0};
  auto box = std::make_shared<vnet::Mailbox>();
  fabric.register_mailbox(dst, box);

  constexpr int kSources = 3;
  constexpr int kMessages = 120;
  int expected = 0;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    fabric.send(vnet::Message{
        vnet::Address{static_cast<vnet::NodeId>(i % kSources), 0}, dst, i,
        payload(64 + i)});
  }
  const auto counters = plan->counters();
  expected = kMessages - static_cast<int>(counters.drops) +
             static_cast<int>(counters.duplicates);

  out.per_source.resize(kSources);
  for (int got = 0; got < expected; ++got) {
    auto msg = box->pop_for(5s);
    if (!msg.has_value()) break;
    out.per_source[msg->from.node].push_back(msg->type);
  }
  out.delivered = fabric.messages_delivered();
  out.dropped_injected = fabric.messages_dropped_injected();
  out.duplicated = fabric.messages_duplicated();
  out.fault_trace = plan->trace();
  fabric.shutdown();
  return out;
}

class FabricModeEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FabricModeEquivalence, SeededFaultTrafficMatchesAcrossModes) {
  const std::uint64_t seed = GetParam();
  const auto rt = run_seeded_traffic(Mode::kRealTime, seed);
  const auto de = run_seeded_traffic(Mode::kDiscreteEvent, seed);

  // The injected decision stream is seed-driven, not time-driven: identical
  // drops, duplicates, delays — event by event.
  EXPECT_EQ(rt.fault_trace, de.fault_trace);
  EXPECT_EQ(rt.dropped_injected, de.dropped_injected);
  EXPECT_EQ(rt.duplicated, de.duplicated);
  EXPECT_EQ(rt.delivered, de.delivered);
  // Per-pair FIFO holds in both modes: each source's messages arrive in send
  // order (duplicates included) regardless of clock backend.
  ASSERT_EQ(rt.per_source.size(), de.per_source.size());
  for (std::size_t s = 0; s < rt.per_source.size(); ++s) {
    EXPECT_EQ(rt.per_source[s], de.per_source[s]) << "source " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricModeEquivalence,
                         ::testing::Values(0xA11CEull, 0xB0Bull));

}  // namespace
}  // namespace dac::simtime
