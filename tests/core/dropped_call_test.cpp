// Job control over a lossy network. pbs_server's calls to the moms
// (MOM_RUN_JOB, MOM_RELEASE) are resent on their backoff until answered, so
// one lost message delays a job by a backoff slot instead of wedging it, and
// the mother superior's dedup cache keeps a copy from acting twice. Every
// test runs under both clock modes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "harness/clock_mode.hpp"
#include "harness/fault_one.hpp"
#include "harness/scenario.hpp"

namespace dac::core {
namespace {

using namespace std::chrono_literals;
using torque::JobState;
using torque::MsgType;

class DroppedCallTest : public ::testing::TestWithParam<simtime::Mode> {};

// The freed set still comes back: the job's next request for the whole pool
// is granted, and the job ends with every slot free.
TEST_P(DroppedCallTest, LostMomReleaseStillReleasesTheSet) {
  std::atomic<int> granted{0};  // outlives the scenario's job
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.clock_mode(GetParam());
  s.program("regrow", [&granted](JobContext& ctx) {
    auto& session = ctx.session();
    (void)session.ac_init();
    for (int round = 0; round < 2; ++round) {
      auto whole_pool = session.ac_get(2);
      if (!whole_pool.granted) break;
      ++granted;
      session.ac_free(whole_pool.client_id);
    }
    session.ac_finalize();
  });
  auto& cluster = s.boot();
  const auto fault = std::make_shared<testing::FaultOne>(
      MsgType::kMomRelease, 1, testing::kDrop);
  cluster.vcluster().fabric().set_fault_injector(fault);

  const auto id = s.submit_program("regrow", /*nodes=*/1, /*acpn=*/0);
  const auto info = s.wait_job(id, 60'000ms);
  ASSERT_TRUE(info.has_value()) << "job " << id << " never completed";
  EXPECT_EQ(info->state, JobState::kComplete);
  EXPECT_EQ(granted.load(), 2);
  EXPECT_GE(fault->seen(), 2) << "the lost MOM_RELEASE was never resent";
  for (const auto& n : cluster.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

// The job runs once, although the server sent its start more than once.
TEST_P(DroppedCallTest, LostMomRunJobStartsTheJobOnce) {
  std::atomic<int> runs{0};  // outlives the scenario's job
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(1);
  s.clock_mode(GetParam());
  s.program("count", [&runs](JobContext&) { ++runs; });
  auto& cluster = s.boot();
  const auto fault = std::make_shared<testing::FaultOne>(
      MsgType::kMomRunJob, 1, testing::kDrop);
  cluster.vcluster().fabric().set_fault_injector(fault);

  const auto id = s.submit_program("count", /*nodes=*/1, /*acpn=*/1);
  const auto info = s.wait_job(id, 60'000ms);
  ASSERT_TRUE(info.has_value()) << "job " << id << " never completed";
  EXPECT_EQ(info->state, JobState::kComplete);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_GE(fault->seen(), 2) << "the lost MOM_RUN_JOB was never resent";
}

INSTANTIATE_TEST_SUITE_P(Clocks, DroppedCallTest, dac::testing::kBothClocks,
                         dac::testing::clock_mode_name);

}  // namespace
}  // namespace dac::core
