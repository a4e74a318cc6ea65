// Pins how much pbs_server traffic a short offload job costs beyond the
// protocol itself: waiting for a job is one WAIT_JOB (no STAT_JOB polling),
// and accelerator daemons that live less than one heartbeat interval send
// no BACKEND_HEARTBEAT (the node's mom already beats).
#include <gtest/gtest.h>

#include <atomic>

#include "harness/scenario.hpp"

namespace dac::core {
namespace {

using namespace std::chrono_literals;

std::uint64_t calls(const svc::MetricsSnapshot& snap, torque::MsgType type) {
  const auto* s = snap.find(torque::as_u32(type));
  return s == nullptr ? 0 : s->calls;
}

TEST(ServerLoad, ShortOffloadJobsCostNoPollsAndNoBackendBeats) {
  constexpr int kJobs = 4;
  testing::Scenario s;
  s.compute_nodes(2).accel_nodes(2 * kJobs);  // every job fits at once
  s.clock_mode(simtime::Mode::kDiscreteEvent);
  // Every daemon here lives a few virtual ms, far below one interval.
  s.config().timing.mom_heartbeat_interval = 1s;
  std::atomic<int> offloaded{0};
  s.program("offload", [&](JobContext& ctx) {
    auto& session = ctx.session();
    const auto statics = session.ac_init();
    ASSERT_EQ(statics.size(), 1u);
    const auto grown = session.ac_get(1);
    ASSERT_TRUE(grown.granted);
    for (const auto ac : session.handles()) {
      const auto p = session.ac_mem_alloc(ac, 256);
      session.ac_mem_free(ac, p);
    }
    session.ac_free(grown.client_id);
    session.ac_finalize();
    ++offloaded;
  });
  auto& cluster = s.boot();
  const auto before = cluster.metrics_snapshot();

  std::vector<torque::JobId> ids;
  for (int i = 0; i < kJobs; ++i) {
    ids.push_back(s.submit_program("offload", /*nodes=*/1, /*acpn=*/1));
  }
  for (const auto id : ids) ASSERT_TRUE(s.wait_job(id, 60'000ms));
  EXPECT_EQ(offloaded, kJobs);

  const auto after = cluster.metrics_snapshot();
  const auto delta = [&](torque::MsgType type) {
    return calls(after, type) - calls(before, type);
  };
  EXPECT_EQ(delta(torque::MsgType::kStatJob), 0u);
  EXPECT_GE(delta(torque::MsgType::kWaitJob), 1u);
  EXPECT_LE(delta(torque::MsgType::kWaitJob), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(delta(torque::MsgType::kBackendHeartbeat), 0u);
}

}  // namespace
}  // namespace dac::core
