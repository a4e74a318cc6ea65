// Scheduler policy tests, run through the full system with the fast timing
// profile: FIFO blocking, priority ordering, fairshare penalties, EASY
// backfill, and the dynamic-first policy toggle.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "core/cluster.hpp"
#include "harness/scenario.hpp"

namespace dac::maui {
namespace {

using namespace std::chrono_literals;
using core::DacCluster;
using core::DacClusterConfig;

torque::JobSpec sleep_job(const std::string& name, int nodes, int ms,
                          int walltime_ms, int priority = 0,
                          const std::string& owner = "user") {
  torque::JobSpec spec;
  spec.name = name;
  spec.owner = owner;
  spec.program = core::kSleepProgram;
  util::ByteWriter w;
  w.put<std::uint64_t>(static_cast<std::uint64_t>(ms));
  spec.program_args = std::move(w).take();
  spec.resources.nodes = nodes;
  spec.resources.ppn = 8;  // whole-node
  spec.resources.walltime = std::chrono::milliseconds(walltime_ms);
  spec.priority = priority;
  return spec;
}

double start_of(DacCluster& cluster, torque::JobId id) {
  auto info = cluster.client().stat_job(id);
  return info ? info->start_time : -1.0;
}

TEST(Policy, FifoRunsInSubmitOrder) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 1;
  config.policy = Policy::kFifo;
  DacCluster cluster(config);

  // One node: three jobs must run strictly in submission order.
  auto a = cluster.submit(sleep_job("a", 1, 30, 50));
  auto b = cluster.submit(sleep_job("b", 1, 30, 50));
  auto c = cluster.submit(sleep_job("c", 1, 30, 50));
  ASSERT_TRUE(cluster.wait_job(c, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(a, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(b, 30'000ms).has_value());
  EXPECT_LT(start_of(cluster, a), start_of(cluster, b));
  EXPECT_LT(start_of(cluster, b), start_of(cluster, c));
}

TEST(Policy, FifoBlocksBehindWideJob) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.policy = Policy::kFifo;
  DacCluster cluster(config);

  auto wide_running = cluster.submit(sleep_job("w1", 1, 150, 200));
  auto wide_blocked = cluster.submit(sleep_job("w2", 2, 30, 50));
  auto narrow = cluster.submit(sleep_job("n", 1, 10, 20));
  ASSERT_TRUE(cluster.wait_job(narrow, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(wide_blocked, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(wide_running, 30'000ms).has_value());
  // Strict FIFO: the narrow job may not overtake the blocked wide job.
  EXPECT_GE(start_of(cluster, narrow), start_of(cluster, wide_blocked));
}

TEST(Policy, BackfillLetsNarrowJobThrough) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.policy = Policy::kBackfill;
  DacCluster cluster(config);

  auto wide_running = cluster.submit(sleep_job("w1", 1, 150, 200));
  // Give the first job a head start so it holds its node.
  ASSERT_TRUE(cluster.client().wait_for_state(
      wide_running, torque::JobState::kRunning, 10'000ms));
  auto wide_blocked = cluster.submit(sleep_job("w2", 2, 30, 300));
  auto narrow = cluster.submit(sleep_job("n", 1, 10, 20));
  ASSERT_TRUE(cluster.wait_job(narrow, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(wide_blocked, 30'000ms).has_value());
  // EASY backfill: the short narrow job runs before the blocked wide job
  // (it finishes before the reservation's shadow time).
  EXPECT_LT(start_of(cluster, narrow), start_of(cluster, wide_blocked));
}

TEST(Policy, PriorityOrdersByQos) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 1;
  config.policy = Policy::kPriority;
  DacCluster cluster(config);

  // Occupy the node, then queue low before high priority.
  auto holder = cluster.submit(sleep_job("hold", 1, 100, 150));
  ASSERT_TRUE(cluster.client().wait_for_state(
      holder, torque::JobState::kRunning, 10'000ms));
  auto low = cluster.submit(sleep_job("low", 1, 10, 20, /*priority=*/0));
  auto high = cluster.submit(sleep_job("high", 1, 10, 20, /*priority=*/5));
  ASSERT_TRUE(cluster.wait_job(low, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(high, 30'000ms).has_value());
  EXPECT_LT(start_of(cluster, high), start_of(cluster, low));
}

TEST(Policy, FairshareDemotesHeavyUser) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 1;
  config.policy = Policy::kPriority;
  config.weights.fairshare = 50.0;
  config.weights.queue_time = 0.0;  // isolate the fairshare factor
  config.weights.fairshare_halflife = 1e6;
  DacCluster cluster(config);

  // "hog" accumulates usage first.
  auto h1 = cluster.submit(sleep_job("h1", 1, 80, 2000, 0, "hog"));
  ASSERT_TRUE(cluster.client().wait_for_state(
      h1, torque::JobState::kRunning, 10'000ms));
  // While the node is busy, both users queue one job each (hog first).
  auto h2 = cluster.submit(sleep_job("h2", 1, 10, 2000, 0, "hog"));
  auto f1 = cluster.submit(sleep_job("f1", 1, 10, 2000, 0, "fresh"));
  ASSERT_TRUE(cluster.wait_job(h2, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(f1, 30'000ms).has_value());
  // The fresh user's job must overtake the hog's.
  EXPECT_LT(start_of(cluster, f1), start_of(cluster, h2));
}

// Ported onto the Scenario harness: the grant is verified from the trace —
// the scheduler's maui.grant_dyn decision span joins the submission's trace
// even with dynamic-first scheduling disabled.
TEST(Policy, DynamicFirstToggleStillGrants) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 1;
  config.accel_nodes = 2;
  config.dynamic_first = false;  // ablation A3 configuration
  dac::testing::Scenario scenario(config);

  std::atomic<bool> granted{false};
  scenario.program("dyn", [&](core::JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    auto got = s.ac_get(1);
    granted = got.granted;
    if (got.granted) s.ac_free(got.client_id);
    s.ac_finalize();
  });
  const auto id = scenario.submit_program("dyn", 1, 0);
  ASSERT_TRUE(scenario.wait_job(id, 30'000ms).has_value());
  EXPECT_TRUE(granted);
  const auto trace_id = scenario.await_job_trace(id);
  ASSERT_NE(trace_id, 0u);
  auto view = scenario.trace();
  const auto* grant = view.first("maui.grant_dyn");
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->trace, trace_id);
  EXPECT_EQ(dac::testing::TraceView::note(*grant, "job"), std::to_string(id));
}

TEST(Policy, SchedulerCountsBackfills) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.policy = Policy::kBackfill;
  DacCluster cluster(config);

  auto wide_running = cluster.submit(sleep_job("w1", 1, 150, 200));
  ASSERT_TRUE(cluster.client().wait_for_state(
      wide_running, torque::JobState::kRunning, 10'000ms));
  auto wide_blocked = cluster.submit(sleep_job("w2", 2, 30, 300));
  auto narrow = cluster.submit(sleep_job("n", 1, 10, 20));
  ASSERT_TRUE(cluster.wait_job(wide_blocked, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(narrow, 30'000ms).has_value());
  EXPECT_GE(cluster.scheduler_stats().backfilled, 1u);
}

// RUN_JOB messages the server has served: one per pass that started jobs.
std::uint64_t run_job_batches(DacCluster& cluster) {
  const auto snap = cluster.metrics_snapshot();
  const auto* s = snap.find(torque::as_u32(torque::MsgType::kRunJob));
  return s == nullptr ? 0 : s->calls;
}

// A pass ships its staged starts in one RUN_JOB even when strict FIFO then
// blocks on a job that does not fit. The holder keeps both nodes busy while
// a, b and the wide w queue; its completion frees them, and the next pass
// stages a and b, blocks on w, and must still start a and b.
TEST(Policy, FifoBlockShipsStagedStarts) {
  dac::testing::Scenario s;
  s.compute_nodes(2).policy(Policy::kFifo);
  s.clock_mode(simtime::Mode::kDiscreteEvent);
  auto& cluster = s.boot();

  const auto holder = cluster.submit(sleep_job("hold", 2, 100, 200));
  ASSERT_TRUE(cluster.client().wait_for_state(
      holder, torque::JobState::kRunning, 10'000ms));
  const auto a = cluster.submit(sleep_job("a", 1, 30, 50));
  const auto b = cluster.submit(sleep_job("b", 1, 30, 50));
  const auto w = cluster.submit(sleep_job("w", 2, 10, 50));
  for (const auto id : {holder, a, b, w}) {
    ASSERT_TRUE(cluster.wait_job(id, 30'000ms).has_value()) << "job " << id;
  }
  EXPECT_LT(start_of(cluster, a), start_of(cluster, w));
  EXPECT_LT(start_of(cluster, b), start_of(cluster, w));
  EXPECT_EQ(cluster.scheduler_stats().jobs_started, 4u);
  // holder, {a, b}, w.
  EXPECT_EQ(run_job_batches(cluster), 3u);
}

// A burst of fitting jobs starts in fewer RUN_JOB messages than starts: the
// eight one-process jobs queue behind a whole-node holder, and the pass
// after its completion starts them together.
TEST(Policy, BurstStartsShareRunJobBatches) {
  dac::testing::Scenario s;
  s.compute_nodes(1).policy(Policy::kFifo);
  s.clock_mode(simtime::Mode::kDiscreteEvent);
  auto& cluster = s.boot();

  const auto holder = cluster.submit(sleep_job("hold", 1, 100, 200));
  ASSERT_TRUE(cluster.client().wait_for_state(
      holder, torque::JobState::kRunning, 10'000ms));
  std::vector<torque::JobId> ids{holder};
  for (int i = 0; i < 8; ++i) {
    auto spec = sleep_job("burst" + std::to_string(i), 1, 10, 50);
    spec.resources.ppn = 1;
    ids.push_back(cluster.submit(spec));
  }
  for (const auto id : ids) {
    ASSERT_TRUE(cluster.wait_job(id, 30'000ms).has_value()) << "job " << id;
  }
  const auto started = cluster.scheduler_stats().jobs_started;
  EXPECT_EQ(started, ids.size());
  EXPECT_LT(run_job_batches(cluster), started);
}

TEST(Policy, DynOwnerPoolCapLimitsOneOwner) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.accel_nodes = 4;
  config.dyn_owner_pool_cap = 0.5;  // one owner may hold at most 2 of 4
  DacCluster cluster(config);

  std::atomic<int> first_grant{-1};
  std::atomic<int> second_grant{-1};
  cluster.register_program("capped", [&](core::JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    // Within the cap: 2 of 4.
    auto g1 = s.ac_get(2);
    first_grant = g1.granted ? 1 : 0;
    // Beyond the cap: this owner would hold 3 of 4.
    auto g2 = s.ac_get(1);
    second_grant = g2.granted ? 1 : 0;
    if (g2.granted) s.ac_free(g2.client_id);
    if (g1.granted) s.ac_free(g1.client_id);
    s.ac_finalize();
  });
  const auto id = cluster.submit_program("capped", 1, 0);
  ASSERT_TRUE(cluster.wait_job(id, 30'000ms).has_value());
  EXPECT_EQ(first_grant, 1);
  EXPECT_EQ(second_grant, 0);
  EXPECT_GE(cluster.scheduler_stats().dyn_capped, 1u);
}

TEST(Policy, DynOwnerPoolCapIsPerOwner) {
  auto config = DacClusterConfig::fast();
  config.compute_nodes = 2;
  config.accel_nodes = 4;
  config.dyn_owner_pool_cap = 0.5;
  DacCluster cluster(config);

  std::atomic<int> grants{0};
  cluster.register_program("fair", [&](core::JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    auto g = s.ac_get(2);
    if (g.granted) {
      ++grants;
      s.ac_free(g.client_id);
    }
    s.ac_finalize();
  });
  // Two different owners: both must get their half of the pool.
  torque::JobSpec a;
  a.name = a.program = "fair";
  a.owner = "alice";
  a.resources.nodes = 1;
  torque::JobSpec b = a;
  b.owner = "bob";
  const auto ja = cluster.submit(a);
  const auto jb = cluster.submit(b);
  ASSERT_TRUE(cluster.wait_job(ja, 30'000ms).has_value());
  ASSERT_TRUE(cluster.wait_job(jb, 30'000ms).has_value());
  EXPECT_EQ(grants, 2);
}

}  // namespace
}  // namespace dac::maui
