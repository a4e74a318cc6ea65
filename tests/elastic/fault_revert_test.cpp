// Fault-path test of elastic offers: a reserved accelerator node dies
// while a grow negotiation is in flight (mid-reconfigure, before the ack
// lands). The node-down reclaim must cancel the offer and revert the whole
// reservation — including reserved hosts that did NOT die — so no slot
// leaks. Runs under the seeded fault plan 0xA11CE so message-delay
// injection shakes the negotiation's timing as well.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "elastic/agent.hpp"
#include "elastic/policy.hpp"
#include "faults/fault_plan.hpp"
#include "harness/scenario.hpp"
#include "simtime/clock.hpp"
#include "svc/deadlines.hpp"

namespace dac::elastic {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kFaultSeed = 0xA11CE;

TEST(ElasticFaultRevert, NodeDeathMidNegotiationRevertsReservation) {
  std::atomic<bool> registered{false};
  std::atomic<bool> crash_done{false};
  std::atomic<bool> pool_recovered{false};
  std::atomic<bool> job_done{false};

  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.fault_plan(std::make_shared<faults::FaultPlan>(kFaultSeed));
  s.config().elastic_policy = std::make_shared<ExpandIdlePolicy>();
  // Keep the offer pending long enough for the node to die first: the
  // revert under test is the crash path, not the timeout sweep.
  s.config().timing.elastic_offer_timeout = 30'000ms;

  s.program("victim", [&](core::JobContext& ctx) {
    // Register grow appetite for the whole pool but never answer offers:
    // the reservation stays pending until the crash cancels it.
    auto ep = ctx.mpi().process().open_endpoint();
    Registration reg;
    reg.job = ctx.job_id();
    reg.agent = ep->address();
    reg.can_grow = true;
    reg.appetite = 2;
    util::ByteWriter w;
    put_registration(w, reg);
    const svc::Caller caller(ctx.mpi().process(),
                             ctx.elastic_config().server, {});
    (void)caller.call(torque::MsgType::kElastRegister, std::move(w).take(),
                      {.deadline = svc::deadlines::kControl});
    registered = true;

    // Stay idle until the driver has crashed and recovered the reserved
    // node — polling dyngets before that would race the proposal and could
    // grab the pool before the offer reserves it.
    while (!crash_done.load()) {
      core::interruptible_sleep(ctx, 5ms);
    }

    // Prove both accelerators came back: a dynget for the full pool only
    // succeeds if the cancelled offer released every reserved host, dead
    // and alive alike.
    auto& ses = ctx.session();
    (void)ses.ac_init();
    (void)testing::await(
        [&] {
          auto got = ses.ac_get(2);
          if (!got.granted) return false;
          pool_recovered = true;
          ses.ac_free(got.client_id);
          return true;
        },
        40'000ms, 25ms);
    ses.ac_finalize();
    job_done = true;
  });

  const auto id = s.submit_program("victim", /*nodes=*/1, /*acpn=*/0);

  // Wait until the registration landed and a grow proposal reserved the
  // pool, then kill one of the reserved accelerator nodes.
  ASSERT_TRUE(testing::await(
      [&] {
        return registered.load() &&
               s.cluster().scheduler_stats().elast_proposed >= 1;
      },
      20'000ms));

  // Cluster layout: head = 0, compute nodes 1..C, accelerators after. With
  // 1 CN the first accelerator is cluster index 2.
  s.fail_node(2);
  // The server suspects, then downs the node and reclaims — cancelling the
  // pending offer on the way. Wait for the down-detection before recovery
  // so the reclaim (and with it the offer cancellation) actually runs.
  std::string accel_host;
  for (const auto& n : s.cluster().client().stat_nodes()) {
    if (n.kind == torque::NodeKind::kAccelerator) {
      accel_host = n.hostname;
      break;
    }
  }
  ASSERT_FALSE(accel_host.empty());
  ASSERT_TRUE(s.cluster().await_node_liveness(
      accel_host, torque::Liveness::kDown, 20'000ms));
  s.recover_node(2);
  ASSERT_TRUE(s.cluster().await_node_liveness(
      accel_host, torque::Liveness::kUp, 20'000ms));
  crash_done = true;

  ASSERT_TRUE(s.wait_job(id, 60'000ms).has_value());
  EXPECT_TRUE(job_done.load());
  EXPECT_TRUE(pool_recovered.load())
      << "reservation leaked: the full pool never became grantable again";

  int used = 0;
  for (const auto& n : s.cluster().client().stat_nodes()) used += n.used;
  EXPECT_EQ(used, 0);

  auto view = s.trace();
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));
}

}  // namespace
}  // namespace dac::elastic
