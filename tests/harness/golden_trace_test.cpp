// Golden-trace tests: the normalized span tree of a seeded scenario is
// compared against a checked-in fixture (tests/harness/golden/). Regenerate
// with DAC_UPDATE_GOLDEN=1 after an intentional protocol or tracing change.
//
// Golden scenarios use single-rank jobs: a multi-rank job's TASK_DONE
// teardown order depends on thread scheduling, which would make the sibling
// order race-dependent even after normalization.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "elastic/agent.hpp"
#include "elastic/policy.hpp"
#include "harness/scenario.hpp"
#include "trace/trace.hpp"

namespace dac::testing {
namespace {

// With DACSCHED_TRACE_DIR set (the CI trace-golden job), every run leaves a
// Chrome about:tracing file behind; CI uploads them when a golden fails.
void export_if_requested(Scenario& s, const char* filename) {
  if (const char* dir = std::getenv("DACSCHED_TRACE_DIR");
      dir != nullptr && *dir != '\0') {
    s.export_trace(filename);
  }
}

// Returns once the server took back every dynamic accelerator of the job.
// Polled outside the job's trace. A job's end may otherwise overtake its
// release at the mother superior: the teardown then disjoins the set with
// the job and JOB_COMPLETE frees its slot. That tree is as correct as the
// golden's, but a different one (MotherSuperiorTest pins that order).
void await_released(core::JobContext& ctx) {
  const trace::ScopedContext untraced(trace::Context{});
  EXPECT_TRUE(await(
      [&] {
        const auto info = ctx.ifl().stat_job(ctx.job_id());
        return info.has_value() && info->dyn_accel_hosts.empty();
      },
      std::chrono::milliseconds(30'000)));
}

// Static-allocation flow: acpn accelerators granted at submission, used via
// ac_init/finalize, covering server -> maui.run_job -> mom -> job -> acd.
std::string run_static_flow() {
  Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.program("golden_static", [](core::JobContext& ctx) {
    auto& ses = ctx.session();
    auto acs = ses.ac_init();
    ASSERT_EQ(acs.size(), 1u);
    const auto p = ses.ac_mem_alloc(acs[0], 128);
    ses.ac_mem_free(acs[0], p);
    ses.ac_finalize();
  });
  const auto id = s.submit_program("golden_static", /*nodes=*/1, /*acpn=*/1);
  EXPECT_TRUE(s.wait_job(id).has_value());
  const auto trace_id = s.await_job_trace(id);
  EXPECT_NE(trace_id, 0u);
  export_if_requested(s, "static_flow.trace.json");
  return s.trace().normalized(trace_id);
}

// Dynamic flow: no static accelerators; the job grows by one with
// pbs_dynget and shrinks again — covering serve.DYN_GET, the scheduler's
// grant decision, MOM_DYN_ADD, and the spawned backend daemon.
std::string run_dyn_flow() {
  Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.program("golden_dyn", [](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    auto got = ses.ac_get(1);
    ASSERT_TRUE(got.granted);
    const auto p = ses.ac_mem_alloc(got.handles[0], 64);
    ses.ac_mem_free(got.handles[0], p);
    ses.ac_free(got.client_id);
    await_released(ctx);
    ses.ac_finalize();
  });
  const auto id = s.submit_program("golden_dyn", /*nodes=*/1, /*acpn=*/0);
  EXPECT_TRUE(s.wait_job(id).has_value());
  const auto trace_id = s.await_job_trace(id);
  EXPECT_NE(trace_id, 0u);
  export_if_requested(s, "dyn_flow.trace.json");
  return s.trace().normalized(trace_id);
}

// Elastic shrink flow: a hog job holds the only accelerator and registers a
// shrink-capable ElasticAgent; a second job's dynget starves, and the
// ShrinkUnderPressure policy negotiates the hog's set back. The golden is
// the requester's trace — one causal tree from its serve.DYN_GET through
// maui.propose_shrink, the offer/ack round-trip, the hog's elastic.apply /
// ac.detach, and the re-grant of the reclaimed slot. Deferred dyngets are
// silent (no spans), so the number of scheduler cycles before the proposal
// does not perturb the tree.
std::string run_elastic_shrink_flow() {
  using namespace std::chrono_literals;
  std::atomic<bool> hog_ready{false};
  std::atomic<bool> done{false};
  Scenario s;
  s.compute_nodes(2).accel_nodes(1);
  s.config().elastic_policy =
      std::make_shared<elastic::ShrinkUnderPressurePolicy>();
  s.program("golden_hog", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    auto got = ses.ac_get(1);
    ASSERT_TRUE(got.granted);
    auto cfg = ctx.elastic_config();
    cfg.accept_shrink = true;
    elastic::ElasticAgent agent(ctx.mpi().process(), cfg);
    agent.on_shrink(
        [&](const elastic::Reconfig& r) { ses.ac_detach(r.client_id); });
    agent.announce();
    hog_ready = true;
    while (!done.load()) (void)agent.service(5ms);
    // Grace drain: apply a reconfigure committed just before `done`.
    const auto grace = simtime::now() + 200ms;
    while (simtime::now() < grace) (void)agent.service(5ms);
    agent.stop();
    ses.ac_finalize();
  });
  s.program("golden_req", [](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    auto got = ses.ac_get(1);
    ASSERT_TRUE(got.granted);
    const auto p = ses.ac_mem_alloc(got.handles[0], 64);
    ses.ac_mem_free(got.handles[0], p);
    ses.ac_free(got.client_id);
    await_released(ctx);
    ses.ac_finalize();
  });
  const auto hog_id = s.submit_program("golden_hog", /*nodes=*/1, /*acpn=*/0);
  EXPECT_TRUE(await([&] { return hog_ready.load(); }, 30'000ms));
  const auto req_id = s.submit_program("golden_req", /*nodes=*/1, /*acpn=*/0);
  EXPECT_TRUE(s.wait_job(req_id, 30'000ms).has_value());
  done = true;
  EXPECT_TRUE(s.wait_job(hog_id, 30'000ms).has_value());
  const auto trace_id = s.await_job_trace(req_id);
  EXPECT_NE(trace_id, 0u);
  export_if_requested(s, "elastic_shrink_flow.trace.json");
  return s.trace().normalized(trace_id);
}

TEST(GoldenTraceTest, StaticAllocationFlowGolden) {
  EXPECT_TRUE(matches_golden("static_flow", run_static_flow()));
}

TEST(GoldenTraceTest, DynGetDynFreeFlowGolden) {
  EXPECT_TRUE(matches_golden("dyn_flow", run_dyn_flow()));
}

TEST(GoldenTraceTest, ElasticShrinkRegrantFlowGolden) {
  EXPECT_TRUE(
      matches_golden("elastic_shrink_flow", run_elastic_shrink_flow()));
}

TEST(GoldenTraceTest, NormalizedTraceIsDeterministicAcrossRuns) {
  // Two independent boots of the same scenario normalize identically —
  // the property the goldens rely on (and CI re-checks under two different
  // fault seeds; delay-only injection must not change the span tree).
  const auto first = run_static_flow();
  const auto second = run_static_flow();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dac::testing
