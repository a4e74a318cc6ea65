// IFL client behaviors not covered by the server tests: polling helpers,
// terminal-state short-circuits, and missing-job queries.
#include "torque/ifl.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>

#include "torque/server.hpp"
#include "vnet/cluster.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;

class IflTest : public ::testing::Test {
 protected:
  IflTest()
      : cluster_([] {
          vnet::ClusterTopology t;
          t.node_count = 2;
          t.network.latency = std::chrono::microseconds(50);
          t.process_start_delay = std::chrono::microseconds(0);
          return t;
        }()) {
    auto timing = BatchTiming::fast();
    timing.server_service_cost = std::chrono::microseconds(0);
    server_ = std::make_unique<PbsServer>(cluster_.node(0), timing);
    proc_ = cluster_.node(0).spawn(
        {.name = "pbs_server"},
        [this](vnet::Process& p) { server_->run(p); });
  }

  // Members go before cluster_ would stop the daemon: stop it first, or
  // its loop runs on a destroyed server_ (a use-after-free TSan reports).
  ~IflTest() override {
    proc_->request_stop();
    proc_->join();
  }

  Ifl client() { return Ifl(cluster_.node(1), server_->address()); }

  vnet::Cluster cluster_;
  std::unique_ptr<PbsServer> server_;
  vnet::ProcessPtr proc_;
};

TEST_F(IflTest, StatJobMissingReturnsNullopt) {
  EXPECT_FALSE(client().stat_job(999).has_value());
}

TEST_F(IflTest, WaitForStateTimesOutOnStuckJob) {
  JobSpec spec;
  spec.name = "stuck";
  spec.program = "x";  // never scheduled: no nodes registered
  const auto id = client().submit(spec);
  auto info = client().wait_for_state(id, JobState::kRunning, 100ms);
  EXPECT_FALSE(info.has_value());
}

TEST_F(IflTest, WaitForStateReturnsImmediatelyOnMatch) {
  JobSpec spec;
  spec.name = "q";
  spec.program = "x";
  const auto id = client().submit(spec);
  auto info = client().wait_for_state(id, JobState::kQueued, 5'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kQueued);
}

TEST_F(IflTest, WaitForStateStopsAtTerminalState) {
  JobSpec spec;
  spec.name = "c";
  spec.program = "x";
  const auto id = client().submit(spec);
  client().delete_job(id);
  // Waiting for kRunning must return promptly with the terminal state
  // instead of burning the whole timeout.
  const auto start = dac::simtime::now();
  auto info = client().wait_for_state(id, JobState::kRunning, 10'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_LT(dac::simtime::now() - start, 2s);
}

TEST_F(IflTest, StatNodesEmptyBeforeRegistration) {
  EXPECT_TRUE(client().stat_nodes().empty());
}

TEST_F(IflTest, SubmitCarriesAllSpecFields) {
  JobSpec spec;
  spec.name = "full";
  spec.owner = "carol";
  spec.program = "prog";
  spec.resources = {2, 4, 3, std::chrono::milliseconds(7777)};
  spec.priority = 2;
  const auto id = client().submit(spec);
  auto info = client().stat_job(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->spec.owner, "carol");
  EXPECT_EQ(info->spec.resources.acpn, 3);
  EXPECT_EQ(info->spec.resources.walltime.count(), 7777);
  EXPECT_EQ(info->spec.priority, 2);
  EXPECT_EQ(info->exit_status, kExitOk);
}

}  // namespace
}  // namespace dac::torque
