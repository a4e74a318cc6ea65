// End-to-end tests of the full DAC batch system: boot a virtual cluster,
// submit jobs through the IFL, run programs that exercise static and dynamic
// accelerator allocation and the offload computation API.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace dac::core {
namespace {

using namespace std::chrono_literals;

class DacClusterTest : public ::testing::Test {
 protected:
  DacClusterTest() : cluster_(DacClusterConfig::fast()) {}
  DacCluster cluster_;
};

TEST_F(DacClusterTest, BootRegistersAllNodes) {
  auto nodes = cluster_.client().stat_nodes();
  ASSERT_EQ(nodes.size(), 7u);  // 3 compute + 4 accelerator
  int compute = 0;
  int accel = 0;
  for (const auto& n : nodes) {
    (n.kind == torque::NodeKind::kCompute ? compute : accel) += 1;
  }
  EXPECT_EQ(compute, 3);
  EXPECT_EQ(accel, 4);
}

TEST_F(DacClusterTest, NoopJobCompletes) {
  const auto id = cluster_.submit_program(kNoopProgram, 1, 0);
  auto info = cluster_.wait_job(id, 10'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, torque::JobState::kComplete);
  EXPECT_EQ(info->compute_hosts.size(), 1u);
  EXPECT_TRUE(info->accel_hosts.empty());
}

TEST_F(DacClusterTest, EmptyProgramJobShortCircuits) {
  torque::JobSpec spec;
  spec.name = "load-only";
  spec.resources.nodes = 1;
  const auto id = cluster_.submit(spec);
  auto info = cluster_.wait_job(id, 10'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, torque::JobState::kComplete);
}

TEST_F(DacClusterTest, StaticAccelerators) {
  std::atomic<int> handles_seen{-1};
  std::atomic<double> init_total{-1.0};
  cluster_.register_program("static_test", [&](JobContext& ctx) {
    rmlib::InitTiming t;
    auto handles = ctx.session().ac_init(&t);
    handles_seen = static_cast<int>(handles.size());
    init_total = t.total_s();
    ctx.session().ac_finalize();
  });
  const auto id = cluster_.submit_program("static_test", 1, 3);
  auto info = cluster_.wait_job(id, 15'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(handles_seen, 3);
  EXPECT_GT(init_total.load(), 0.0);
  EXPECT_EQ(info->accel_hosts.size(), 3u);

  // All resources must be free again after completion.
  for (const auto& n : cluster_.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

TEST_F(DacClusterTest, OffloadVectorAdd) {
  std::atomic<bool> ok{false};
  cluster_.register_program("offload_test", [&](JobContext& ctx) {
    auto& s = ctx.session();
    auto handles = s.ac_init();
    ASSERT_EQ(handles.size(), 1u);
    const auto ac = handles[0];

    constexpr std::uint64_t kN = 1024;
    std::vector<double> a(kN), b(kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
      a[i] = static_cast<double>(i);
      b[i] = 2.0 * static_cast<double>(i);
    }
    const auto bytes = kN * sizeof(double);
    const auto da = s.ac_mem_alloc(ac, bytes);
    const auto db = s.ac_mem_alloc(ac, bytes);
    const auto dc = s.ac_mem_alloc(ac, bytes);
    s.ac_memcpy_h2d(ac, da, std::as_bytes(std::span(a)));
    s.ac_memcpy_h2d(ac, db, std::as_bytes(std::span(b)));

    const auto k = s.ac_kernel_create(ac, "vector_add");
    util::ByteWriter args;
    args.put<std::uint64_t>(dc);
    args.put<std::uint64_t>(da);
    args.put<std::uint64_t>(db);
    args.put<std::uint64_t>(kN);
    s.ac_kernel_set_args(ac, k, std::move(args).take());
    s.ac_kernel_run(ac, k, {256, 1, 1}, {4, 1, 1});

    auto out = s.ac_memcpy_d2h(ac, dc, bytes);
    const auto* c = reinterpret_cast<const double*>(out.data());
    bool good = out.size() == bytes;
    for (std::uint64_t i = 0; good && i < kN; i += 17) {
      good = c[i] == 3.0 * static_cast<double>(i);
    }
    s.ac_mem_free(ac, da);
    s.ac_mem_free(ac, db);
    s.ac_mem_free(ac, dc);
    s.ac_finalize();
    ok = good;
  });
  const auto id = cluster_.submit_program("offload_test", 1, 1);
  ASSERT_TRUE(cluster_.wait_job(id, 15'000ms).has_value());
  EXPECT_TRUE(ok);
}

TEST_F(DacClusterTest, DynamicGetGrowsAndFrees) {
  std::atomic<bool> ok{false};
  cluster_.register_program("dyn_test", [&](JobContext& ctx) {
    auto& s = ctx.session();
    auto statics = s.ac_init();
    ASSERT_EQ(statics.size(), 1u);

    auto got = s.ac_get(2);
    ASSERT_TRUE(got.granted);
    ASSERT_EQ(got.handles.size(), 2u);
    // Paper rank layout: static 1..x, dynamic x+1..x+y.
    EXPECT_EQ(got.handles[0].rank, 2);
    EXPECT_EQ(got.handles[1].rank, 3);
    EXPECT_EQ(s.accelerator_count(), 3);
    EXPECT_GT(got.batch_s, 0.0);
    EXPECT_GT(got.mpi_s, 0.0);

    // The new accelerators must actually serve compute requests.
    const auto info = s.ac_device_info(got.handles[1]);
    EXPECT_FALSE(info.name.empty());

    s.ac_free(got.client_id);
    EXPECT_EQ(s.accelerator_count(), 1);
    // The statically allocated accelerator still works after the release.
    (void)s.ac_device_info(statics[0]);
    s.ac_finalize();
    ok = true;
  });
  const auto id = cluster_.submit_program("dyn_test", 1, 1);
  ASSERT_TRUE(cluster_.wait_job(id, 20'000ms).has_value());
  EXPECT_TRUE(ok);

  for (const auto& n : cluster_.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

TEST_F(DacClusterTest, DynamicRequestRejectedWhenInsufficient) {
  std::atomic<int> outcome{-1};
  cluster_.register_program("reject_test", [&](JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    // Only 4 accelerator nodes exist and 1 is held statically.
    auto got = s.ac_get(10);
    outcome = got.granted ? 1 : 0;
    // The application continues with its existing set (paper §II-B).
    EXPECT_EQ(s.accelerator_count(), 1);
    s.ac_finalize();
  });
  const auto id = cluster_.submit_program("reject_test", 1, 1);
  ASSERT_TRUE(cluster_.wait_job(id, 15'000ms).has_value());
  EXPECT_EQ(outcome, 0);
}

TEST_F(DacClusterTest, MultiComputeNodeJob) {
  std::atomic<int> ranks_sum{0};
  std::atomic<int> per_cn_accels{-1};
  cluster_.register_program("multi_cn", [&](JobContext& ctx) {
    ranks_sum += ctx.rank() + 1;
    // Each compute node gets its own accelerator set and communicator
    // (paper §III-C).
    auto handles = ctx.session().ac_init();
    if (ctx.rank() == 0) per_cn_accels = static_cast<int>(handles.size());
    (void)ctx.mpi().allreduce(ctx.world(), std::int64_t{1},
                              minimpi::ReduceOp::kSum);
    ctx.session().ac_finalize();
  });
  const auto id = cluster_.submit_program("multi_cn", 2, 2);
  auto info = cluster_.wait_job(id, 20'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(ranks_sum, 1 + 2);
  EXPECT_EQ(per_cn_accels, 2);
  EXPECT_EQ(info->compute_hosts.size(), 2u);
  EXPECT_EQ(info->accel_hosts.size(), 4u);
}

TEST_F(DacClusterTest, JobsQueueWhenResourcesBusy) {
  // 3 compute nodes; submit 4 single-node jobs that hold their node briefly.
  std::vector<torque::JobId> ids;
  for (int i = 0; i < 4; ++i) {
    util::ByteWriter w;
    w.put<std::uint64_t>(30);  // sleep 30 ms
    ids.push_back(cluster_.submit_program(kSleepProgram, 1, 0,
                                          std::move(w).take()));
  }
  for (const auto id : ids) {
    auto info = cluster_.wait_job(id, 20'000ms);
    ASSERT_TRUE(info.has_value()) << "job " << id;
  }
}

// A job without a compute node has no mother superior to run it. The server
// refuses it at submission, and the cluster keeps serving.
TEST_F(DacClusterTest, ZeroNodeSubmitRefused) {
  EXPECT_THROW((void)cluster_.submit_program(kNoopProgram, 0, 0),
               svc::CallError);
  const auto id = cluster_.submit_program(kNoopProgram, 1, 0);
  auto info = cluster_.wait_job(id, 10'000ms);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, torque::JobState::kComplete);
}

TEST_F(DacClusterTest, SchedulerStatsAdvance) {
  const auto before = cluster_.scheduler_stats();
  const auto id = cluster_.submit_program(kNoopProgram, 1, 0);
  ASSERT_TRUE(cluster_.wait_job(id, 10'000ms).has_value());
  const auto after = cluster_.scheduler_stats();
  EXPECT_GT(after.cycles, before.cycles);
  EXPECT_GT(after.jobs_started, before.jobs_started);
}

}  // namespace
}  // namespace dac::core
