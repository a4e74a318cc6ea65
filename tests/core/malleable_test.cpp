// Malleability tests (the §V generalization): dynamic compute-node growth
// through the same batch-system machinery as accelerators, worker spawning,
// and set-scoped cleanup on release.
#include <gtest/gtest.h>

#include <atomic>

#include "core/cluster.hpp"
#include "harness/scenario.hpp"

namespace dac::core {
namespace {

using namespace std::chrono_literals;

class MalleableTest : public ::testing::Test {
 protected:
  MalleableTest() : cluster_([] {
    auto c = DacClusterConfig::fast();
    c.compute_nodes = 4;
    c.accel_nodes = 2;
    return c;
  }()) {}

  void run_job(const std::string& name, JobProgram body, int nodes = 1) {
    cluster_.register_program(name, std::move(body));
    const auto id = cluster_.submit_program(name, nodes, 0);
    ASSERT_TRUE(cluster_.wait_job(id, 30'000ms).has_value());
  }

  int used_slots() {
    int used = 0;
    for (const auto& n : cluster_.client().stat_nodes()) used += n.used;
    return used;
  }

  DacCluster cluster_;
};

TEST_F(MalleableTest, GrowGrantsFreshNodes) {
  std::atomic<bool> ok{false};
  run_job("grow", [&](JobContext& ctx) {
    auto grant = ctx.grow_compute(2);
    ASSERT_TRUE(grant.granted);
    ASSERT_EQ(grant.hosts.size(), 2u);
    // The grant must not include the job's own compute node.
    const auto own = ctx.info().compute_hosts.front().hostname;
    for (const auto& h : grant.hosts) EXPECT_NE(h, own);
    ctx.release_compute(grant.client_id);
    ok = true;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(used_slots(), 0);
}

TEST_F(MalleableTest, GrowRejectedWhenPoolExhausted) {
  std::atomic<int> outcome{-1};
  run_job("grow_fail", [&](JobContext& ctx) {
    // Only 3 other compute nodes exist.
    auto grant = ctx.grow_compute(5);
    outcome = grant.granted ? 1 : 0;
  });
  EXPECT_EQ(outcome, 0);
}

TEST_F(MalleableTest, PartialComputeGrant) {
  std::atomic<int> got{-1};
  run_job("grow_partial", [&](JobContext& ctx) {
    auto grant = ctx.grow_compute(5, /*min_count=*/1);
    got = grant.granted ? static_cast<int>(grant.hosts.size()) : 0;
    if (grant.granted) ctx.release_compute(grant.client_id);
  });
  EXPECT_EQ(got, 3);  // the three other compute nodes
}

TEST_F(MalleableTest, SpawnedWorkersCompute) {
  std::atomic<double> result{0.0};
  cluster_.runtime().register_executable(
      "test.worker", [](minimpi::Proc& p, const util::Bytes&) {
        auto& parent = *p.parent_comm();
        auto task = p.recv(parent, 0, 1);
        util::ByteReader r(task.data);
        const double x = r.get<double>();
        util::ByteWriter w;
        w.put<double>(x * x);
        p.send(parent, 0, 2, std::move(w).take());
        p.disconnect(parent);
      });
  run_job("spawn", [&](JobContext& ctx) {
    auto grant = ctx.grow_compute(2);
    ASSERT_TRUE(grant.granted);
    auto inter = ctx.spawn_workers("test.worker", {}, grant.nodes,
                                   ctx.mpi().self(), 0, grant.client_id);
    for (int w = 0; w < 2; ++w) {
      util::ByteWriter msg;
      msg.put<double>(static_cast<double>(w + 3));
      ctx.mpi().send(inter, w, 1, std::move(msg).take());
    }
    double sum = 0.0;
    for (int w = 0; w < 2; ++w) {
      auto r = ctx.mpi().recv(inter, minimpi::kAnySource, 2);
      util::ByteReader rd(r.data);
      sum += rd.get<double>();
    }
    ctx.mpi().disconnect(inter);
    result = sum;
    ctx.release_compute(grant.client_id);
  });
  EXPECT_DOUBLE_EQ(result, 9.0 + 16.0);
  EXPECT_EQ(used_slots(), 0);
}

TEST_F(MalleableTest, ReleaseKillsLeftoverWorkers) {
  // A worker that never exits on its own must be reaped by the DISJOIN that
  // the release triggers — without killing the job script itself.
  std::atomic<bool> job_survived{false};
  cluster_.runtime().register_executable(
      "test.stuck_worker", [](minimpi::Proc& p, const util::Bytes&) {
        // Blocks forever; only a kill ends it.
        (void)p.recv(p.world(), minimpi::kAnySource, 99);
      });
  run_job("leftover", [&](JobContext& ctx) {
    auto grant = ctx.grow_compute(1);
    ASSERT_TRUE(grant.granted);
    (void)ctx.spawn_workers("test.stuck_worker", {}, grant.nodes,
                            ctx.mpi().self(), 0, grant.client_id);
    const int held = used_slots();
    ctx.release_compute(grant.client_id);
    // The set's slot comes back once the DISJOIN reaped the worker; the job
    // itself must still be alive to see it.
    job_survived =
        dac::testing::await([&] { return used_slots() == held - 1; }, 5s);
  });
  EXPECT_TRUE(job_survived);
  // All slots free: the stuck worker was killed with its set.
  EXPECT_EQ(used_slots(), 0);
}

TEST_F(MalleableTest, AcceleratorsAndComputeGrowthCompose) {
  std::atomic<bool> ok{false};
  run_job("both", [&](JobContext& ctx) {
    auto& s = ctx.session();
    (void)s.ac_init();
    auto acs = s.ac_get(1);
    ASSERT_TRUE(acs.granted);
    auto cns = ctx.grow_compute(1);
    ASSERT_TRUE(cns.granted);
    // Both kinds of resources held simultaneously; release in any order
    // across kinds.
    ctx.release_compute(cns.client_id);
    s.ac_free(acs.client_id);
    s.ac_finalize();
    ok = true;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(used_slots(), 0);
}

}  // namespace
}  // namespace dac::core
