// Deep integration scenarios combining several features in one job: static
// sets plus per-CN dynamic growth in a multi-node job, interleaved offload
// traffic, and the collective/individual paths mixed across phases.
#include <gtest/gtest.h>

#include <atomic>

#include "core/cli.hpp"
#include "core/cluster.hpp"
#include "harness/scenario.hpp"

namespace dac::core {
namespace {

using namespace std::chrono_literals;

TEST(Integration, MultiCnStaticPlusIndependentDynamicGrowth) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.accel_nodes = 6;
  DacCluster cluster(config);

  std::atomic<int> ok{0};
  cluster.register_program("deep", [&](JobContext& ctx) {
    auto& s = ctx.session();
    // Each CN: 1 static accelerator.
    auto statics = s.ac_init();
    ASSERT_EQ(statics.size(), 1u);

    // Rank 0 grows by 2, rank 1 by 1 — independent requests from the same
    // job serialize at the server but both succeed (pool: 6 - 2 static).
    const int want = ctx.rank() == 0 ? 2 : 1;
    auto got = s.ac_get(want);
    ASSERT_TRUE(got.granted);
    ASSERT_EQ(static_cast<int>(got.handles.size()), want);

    // Offload to every accelerator this CN holds (static + dynamic).
    for (const auto ac : s.handles()) {
      const auto p = s.ac_mem_alloc(ac, 256);
      s.ac_mem_free(ac, p);
    }

    // Synchronize the job, then release and verify the static one works.
    ctx.mpi().barrier(ctx.world());
    s.ac_free(got.client_id);
    const auto p = s.ac_mem_alloc(statics[0], 128);
    s.ac_mem_free(statics[0], p);
    s.ac_finalize();
    ++ok;
  });
  const auto id = cluster.submit_program("deep", 2, 1);
  ASSERT_TRUE(cluster.wait_job(id, 60'000ms).has_value());
  EXPECT_EQ(ok, 2);
  for (const auto& n : cluster.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

TEST(Integration, IndividualThenCollectivePhases) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.accel_nodes = 4;
  DacCluster cluster(config);

  std::atomic<int> ok{0};
  cluster.register_program("phases", [&](JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();

    // Phase 1: rank 0 alone grows and shrinks.
    if (ctx.rank() == 0) {
      auto solo = s.ac_get(1);
      ASSERT_TRUE(solo.granted);
      s.ac_free(solo.client_id);
    }
    ctx.mpi().barrier(ctx.world());

    // Phase 2: a collective request across both ranks.
    auto coll = s.ac_get_collective(ctx.world(), 2);
    ASSERT_TRUE(coll.granted);
    EXPECT_EQ(coll.handles.size(), 2u);
    s.ac_free_collective(ctx.world(), coll.client_id);

    s.ac_finalize();
    ++ok;
  });
  const auto id = cluster.submit_program("phases", 2, 0);
  ASSERT_TRUE(cluster.wait_job(id, 60'000ms).has_value());
  EXPECT_EQ(ok, 2);
}

// AC_Free's pbs_dynfree is answered before the mother superior has handed
// the slots back. An AC_Get right after it must wait for that release, not
// be rejected for slots that are on their way back. The virtual clock makes
// the old race lose every time.
TEST(Integration, GetRightAfterFreeWaitsForTheRelease) {
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.clock_mode(simtime::Mode::kDiscreteEvent);
  std::atomic<int> granted{0};
  s.program("regrow", [&](JobContext& ctx) {
    auto& session = ctx.session();
    (void)session.ac_init();
    for (int round = 0; round < 3; ++round) {
      auto whole_pool = session.ac_get(2);
      if (!whole_pool.granted) break;
      ++granted;
      session.ac_free(whole_pool.client_id);
    }
    session.ac_finalize();
  });
  const auto id = s.submit_program("regrow", /*nodes=*/1, /*acpn=*/0);
  ASSERT_TRUE(s.wait_job(id, 60'000ms));
  EXPECT_EQ(granted, 3);
}

TEST(Integration, TwoJobsShareThePoolFairly) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.accel_nodes = 4;
  DacCluster cluster(config);

  std::atomic<int> completed{0};
  cluster.register_program("churner", [&](JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    // Repeatedly grab and release; with two jobs churning, rejections are
    // possible and must be harmless.
    for (int round = 0; round < 6; ++round) {
      auto got = s.ac_get(2, /*min_count=*/1);
      if (got.granted) {
        const auto p = s.ac_mem_alloc(got.handles[0], 64);
        s.ac_mem_free(got.handles[0], p);
        s.ac_free(got.client_id);
      }
    }
    s.ac_finalize();
    ++completed;
  });
  const auto a = cluster.submit_program("churner", 1, 0);
  const auto b = cluster.submit_program("churner", 1, 0);
  ASSERT_TRUE(cluster.wait_job(a, 60'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(b, 60'000ms).has_value());
  EXPECT_EQ(completed, 2);
  for (const auto& n : cluster.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

TEST(Integration, QstatRendersLiveSystem) {
  auto config = DacClusterConfig::fast();
  DacCluster cluster(config);
  const auto id = cluster.submit_program(kNoopProgram, 1, 1);
  ASSERT_TRUE(cluster.wait_job(id, 30'000ms).has_value());
  const auto qstat = render_qstat(cluster.client().stat_jobs());
  EXPECT_NE(qstat.find(core::kNoopProgram), std::string::npos);
  const auto nodes = render_pbsnodes(cluster.client().stat_nodes());
  EXPECT_NE(nodes.find("cn0"), std::string::npos);
  EXPECT_NE(nodes.find("accelerator"), std::string::npos);
}

}  // namespace
}  // namespace dac::core
