// WAIT_JOB: Ifl::wait_for_state is one held request that the server answers
// from whichever path moves the job — a mutating handler, a notification,
// qdel, or the liveness tick — or at the client's own budget. Every test
// runs under both clock modes.
#include <gtest/gtest.h>

#include <memory>

#include "faults/fault_plan.hpp"
#include "hand_server.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;
using simtime::Mode;
using testing::HandServer;
using testing::kHandLatency;

// DiscreteEvent delivery rounds up to a 10 us grid; a hop may gain that.
constexpr auto kQuantum = 10us;

// The reply leaves in the instant of the transition, so the waiter wakes
// one hop after the server saw the driver's message: two hops after it was
// sent. RealTime can only promise the order.
void expect_woke_at_transition(const HandServer& s, simtime::TimePoint sent,
                               simtime::TimePoint woke) {
  EXPECT_GE(woke - sent, 2 * kHandLatency);
  if (s.virtual_clock()) {
    EXPECT_LE(woke - sent, 2 * (kHandLatency + kQuantum));
  }
}

// A compute node that stops beating is declared down on the liveness tick.
BatchTiming short_liveness(int requeue_limit) {
  auto t = BatchTiming::fast();
  t.mom_heartbeat_interval = 10ms;
  t.heartbeat_suspect_factor = 2;
  t.heartbeat_stale_factor = 4;
  t.job_requeue_limit = requeue_limit;
  return t;
}

class WaitJobTest : public ::testing::TestWithParam<Mode> {};

TEST_P(WaitJobTest, WakesAtTheRunningAndCompleteTransitions) {
  HandServer s(GetParam());
  const auto id = s.submit();
  const auto run_at = simtime::now() + 1234us;
  const auto done_at = run_at + 3ms;
  auto driver = s.at(run_at, [&] {
    s.run_job(id);
    simtime::sleep_until(done_at);
    s.complete_job(id);
  });

  const auto running = s.client().wait_for_state(id, JobState::kRunning, 10s);
  const auto woke_running = simtime::now();
  const auto done = s.client().wait_for_state(id, JobState::kComplete, 10s);
  const auto woke_done = simtime::now();
  driver->join();

  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->state, JobState::kRunning);
  expect_woke_at_transition(s, run_at, woke_running);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kComplete);
  expect_woke_at_transition(s, done_at, woke_done);
  // One request per wait: nothing polls.
  EXPECT_EQ(s.calls(MsgType::kWaitJob), 2u);
  EXPECT_EQ(s.calls(MsgType::kStatJob), 0u);
}

TEST_P(WaitJobTest, QdelAnswersWithTheTerminalState) {
  HandServer s(GetParam());
  const auto id = s.submit();
  auto driver =
      s.at(simtime::now() + 1ms, [&] { s.client().delete_job(id); });
  const auto info = s.client().wait_for_state(id, JobState::kRunning, 10s);
  driver->join();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kCancelled);
}

TEST_P(WaitJobTest, ComputeNodeDeathAnswersWithCancelled) {
  HandServer s(GetParam(), short_liveness(0));
  const auto id = s.submit();
  s.run_job(id);
  const auto info = s.client().wait_for_state(id, JobState::kComplete, 10s);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_EQ(info->exit_status, kExitKilled);
}

TEST_P(WaitJobTest, ComputeNodeDeathRequeueAnswersAQueuedWait) {
  HandServer s(GetParam(), short_liveness(1));
  const auto id = s.submit();
  s.run_job(id);
  const auto info = s.client().wait_for_state(id, JobState::kQueued, 10s);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kQueued);
  EXPECT_EQ(info->requeues, 1);
}

TEST_P(WaitJobTest, TimedOutWaitLeavesNoWaiterAndNoDrop) {
  HandServer s(GetParam());
  const auto id = s.submit();  // never scheduled: no scheduler runs
  const auto drops = s.cluster().fabric().messages_dropped();
  const auto start = simtime::now();
  const auto info = s.client().wait_for_state(id, JobState::kRunning, 100ms);
  const auto waited = simtime::now() - start;
  EXPECT_FALSE(info.has_value());
  EXPECT_GE(waited, 100ms);
  if (s.virtual_clock()) {
    EXPECT_LT(waited, 100ms + 4 * kHandLatency);
  }
  EXPECT_EQ(s.calls(MsgType::kWaitJob), 1u);

  // A waiter left behind would now answer into the closed endpoint.
  s.run_job(id);
  const auto now_running = s.client().stat_job(id);
  ASSERT_TRUE(now_running.has_value());
  EXPECT_EQ(now_running->state, JobState::kRunning);
  EXPECT_EQ(s.cluster().fabric().messages_dropped(), drops);
}

TEST_P(WaitJobTest, UnknownJobAnswersAtOnce) {
  HandServer s(GetParam());
  const auto start = simtime::now();
  EXPECT_FALSE(
      s.client().wait_for_state(4242, JobState::kRunning, 10s).has_value());
  EXPECT_LT(simtime::now() - start, 1s);
}

TEST_P(WaitJobTest, DuplicatedTrafficStillGivesOneAnswer) {
  auto plan = std::make_shared<faults::FaultPlan>(
      0xD0B, faults::FaultRates{.duplicate = 1.0});
  HandServer s(GetParam(), BatchTiming::fast(), plan);
  const auto id = s.submit();
  auto driver = s.at(simtime::now() + 1ms, [&] { s.run_job(id); });
  const auto info = s.client().wait_for_state(id, JobState::kRunning, 10s);
  driver->join();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kRunning);
  // The duplicated request was recognized, not served a second time.
  EXPECT_EQ(s.calls(MsgType::kWaitJob), 1u);
  EXPECT_GT(plan->counters().duplicates, 0u);
}

INSTANTIATE_TEST_SUITE_P(Clocks, WaitJobTest, dac::testing::kBothClocks,
                         dac::testing::clock_mode_name);

}  // namespace
}  // namespace dac::torque
