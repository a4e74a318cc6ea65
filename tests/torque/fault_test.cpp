// Fault-tolerance tests (the paper's §VI future work, implemented here):
// mom heartbeats, server-side down detection, scheduler avoidance of dead
// nodes, and recovery through mom re-registration.
#include <gtest/gtest.h>

#include <atomic>

#include "util/sync.hpp"

#include "simtime/clock.hpp"
#include "core/cluster.hpp"
#include "harness/scenario.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;

class FaultTest : public ::testing::Test {
 protected:
  FaultTest() : cluster_([] {
    auto c = core::DacClusterConfig::fast();
    c.compute_nodes = 2;
    c.accel_nodes = 3;
    // Fast heartbeats so down-detection happens within test budgets, with
    // enough slack that a merely busy mom is not declared dead.
    c.timing.mom_heartbeat_interval = std::chrono::milliseconds(10);
    c.timing.heartbeat_stale_factor = 10;
    return c;
  }()) {}

  // cluster node index of accelerator i.
  std::size_t ac_index(std::size_t i) const { return 1 + 2 + i; }

  bool node_up(const std::string& hostname) {
    for (const auto& n : cluster_.client().stat_nodes()) {
      if (n.hostname == hostname) return n.up;
    }
    return false;
  }

  // Polls until `hostname` reaches the wanted liveness (or times out).
  bool await_liveness(const std::string& hostname, bool want,
                      std::chrono::milliseconds timeout = 3000ms) {
    return testing::await([&] { return node_up(hostname) == want; }, timeout);
  }

  core::DacCluster cluster_;
};

TEST_F(FaultTest, AllNodesInitiallyUp) {
  for (const auto& n : cluster_.client().stat_nodes()) {
    EXPECT_TRUE(n.up) << n.hostname;
  }
}

TEST_F(FaultTest, DeadMomMarksNodeDown) {
  cluster_.fail_node(ac_index(0));
  EXPECT_TRUE(await_liveness("ac0", false));
  // Others unaffected.
  EXPECT_TRUE(node_up("ac1"));
  EXPECT_TRUE(node_up("cn0"));
}

TEST_F(FaultTest, SchedulerAvoidsDownNode) {
  cluster_.fail_node(ac_index(2));
  ASSERT_TRUE(await_liveness("ac2", false));

  std::atomic<int> granted_full{-1};
  std::atomic<int> granted_partial{-1};
  cluster_.register_program("ft_dyn", [&](core::JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    // All 3 accelerators cannot be granted: one node is down.
    auto full = s.ac_get(3);
    granted_full = full.granted ? 1 : 0;
    // The two live ones can.
    auto partial = s.ac_get(2);
    granted_partial = partial.granted ? 1 : 0;
    if (partial.granted) {
      for (const auto& h : partial.reply.hosts) EXPECT_NE(h, "ac2");
      s.ac_free(partial.client_id);
    }
    s.ac_finalize();
  });
  const auto id = cluster_.submit_program("ft_dyn", 1, 0);
  ASSERT_TRUE(cluster_.wait_job(id, 30'000ms).has_value());
  EXPECT_EQ(granted_full, 0);
  EXPECT_EQ(granted_partial, 1);
}

TEST_F(FaultTest, StaticAllocationSkipsDownNode) {
  cluster_.fail_node(ac_index(1));
  ASSERT_TRUE(await_liveness("ac1", false));

  std::atomic<bool> ran{false};
  cluster_.register_program("ft_static", [&](core::JobContext& ctx) {
    auto handles = ctx.session().ac_init();
    EXPECT_EQ(handles.size(), 2u);
    ctx.session().ac_finalize();
    ran = true;
  });
  // acpn=2 with only 2 live accelerator nodes: must avoid ac1.
  const auto id = cluster_.submit_program("ft_static", 1, 2);
  auto info = cluster_.wait_job(id, 30'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(ran);
  for (const auto& h : info->accel_hosts) EXPECT_NE(h, "ac1");
}

TEST_F(FaultTest, MomRestartBringsNodeBack) {
  cluster_.fail_node(ac_index(0));
  ASSERT_TRUE(await_liveness("ac0", false));
  cluster_.recover_node(ac_index(0));
  ASSERT_TRUE(await_liveness("ac0", true));

  // The recovered node is usable again.
  std::atomic<bool> ok{false};
  cluster_.register_program("ft_recover", [&](core::JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    auto got = s.ac_get(3);  // needs all three, including ac0
    ok = got.granted;
    if (got.granted) s.ac_free(got.client_id);
    s.ac_finalize();
  });
  const auto id = cluster_.submit_program("ft_recover", 1, 0);
  ASSERT_TRUE(cluster_.wait_job(id, 30'000ms).has_value());
  EXPECT_TRUE(ok);
}

TEST_F(FaultTest, ComputeNodeFailureDetected) {
  cluster_.fail_node(1);  // cn0
  EXPECT_TRUE(await_liveness("cn0", false));
  // Jobs still run on the remaining compute node.
  const auto id = cluster_.submit_program(core::kNoopProgram, 1, 0);
  auto info = cluster_.wait_job(id, 30'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->compute_hosts.front(), "cn1");
}

TEST_F(FaultTest, JobOnDeadComputeNodeIsFailedAndFreed) {
  // A long job runs on a compute node that then dies: the server must fail
  // the job and release everything it held.
  dac::Latch started{1};
  cluster_.register_program("victim", [&](core::JobContext& ctx) {
    started.count_down();
    core::interruptible_sleep(ctx, 60'000ms);
  });
  torque::JobSpec spec;
  spec.name = spec.program = "victim";
  spec.resources.nodes = 1;
  spec.resources.acpn = 1;  // also holds an accelerator
  spec.resources.walltime = std::chrono::milliseconds(120'000);
  const auto id = cluster_.submit(spec);
  started.wait();

  auto running = cluster_.client().stat_job(id);
  ASSERT_TRUE(running.has_value());
  const auto host = running->compute_hosts.front();
  const std::size_t idx = host == "cn0" ? 1 : 2;
  cluster_.fail_node(idx);
  ASSERT_TRUE(await_liveness(host, false));

  // The server notices on its next node refresh and fails the job.
  std::optional<torque::JobInfo> info;
  (void)testing::await(
      [&] {
        info = cluster_.client().stat_job(id);
        return info && info->state == torque::JobState::kCancelled;
      },
      5s, 10ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, torque::JobState::kCancelled);
  EXPECT_EQ(info->exit_status, torque::kExitKilled);
  for (const auto& n : cluster_.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

}  // namespace
}  // namespace dac::torque
