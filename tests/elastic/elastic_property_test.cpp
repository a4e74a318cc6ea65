// Property-based elastic-negotiation test: a seeded random mix of hog jobs
// (shrinkable, holding dynamic sets), plain dynget requesters, and deaf
// grow registrants (whose offers always time out) runs against the Balanced
// utilization policy. Whatever storm of offer/ack/nack/timeout the mix
// produces, the allocation invariants of the scheduler property test must
// still hold:
//   1. no slot double-grant (TraceView::no_allocation_overlap);
//   2. every assignment matched by a release, node table drained to zero;
//   3. every job of the stream completes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <vector>

#include "elastic/agent.hpp"
#include "elastic/policy.hpp"
#include "harness/scenario.hpp"
#include "simtime/clock.hpp"
#include "svc/deadlines.hpp"

namespace dac::elastic {
namespace {

using namespace std::chrono_literals;

void run_storm(std::uint32_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
  std::mt19937 rng(seed);  // explicit seed: the storm must be replayable
  std::uniform_int_distribution<int> sets_dist(1, 2);
  std::uniform_int_distribution<int> rounds_dist(1, 2);
  std::uniform_int_distribution<int> want_dist(1, 2);

  std::atomic<bool> done{false};

  testing::Scenario s;
  s.compute_nodes(2).accel_nodes(4);
  s.config().elastic_policy = std::make_shared<BalancedPolicy>();
  s.config().timing.elastic_offer_timeout = 150ms;

  // Hog: grabs dynamic sets, registers shrinkable, and keeps servicing
  // until the driver says the storm is over; whatever the negotiation left
  // it holding is released LIFO at the end.
  s.program("hog", [&](core::JobContext& ctx) {
    util::ByteReader r(ctx.info().program_args);
    const auto sets = r.get<std::int32_t>();
    auto& ses = ctx.session();
    (void)ses.ac_init();
    std::vector<std::uint64_t> held;
    for (std::int32_t i = 0; i < sets; ++i) {
      auto got = ses.ac_get(1);
      if (got.granted) held.push_back(got.client_id);
    }
    auto cfg = ctx.elastic_config();
    cfg.accept_shrink = true;
    ElasticAgent agent(ctx.mpi().process(), cfg);
    agent.on_shrink([&](const Reconfig& rc) {
      ASSERT_FALSE(held.empty());
      ASSERT_EQ(held.back(), rc.client_id) << "shrink must reclaim LIFO";
      ses.ac_detach(rc.client_id);
      held.pop_back();
    });
    agent.announce();
    while (!done.load()) (void)agent.service(5ms);
    // Grace drain: apply any reconfigure committed just before `done`.
    const auto grace = simtime::now() + 200ms;
    while (simtime::now() < grace) (void)agent.service(5ms);
    agent.stop();
    while (!held.empty()) {
      ses.ac_free(held.back());
      held.pop_back();
    }
    ses.ac_finalize();
  });

  // Requester: rounds of plain dyngets; rejection is a normal outcome.
  s.program("requester", [&](core::JobContext& ctx) {
    util::ByteReader r(ctx.info().program_args);
    const auto rounds = r.get<std::int32_t>();
    const auto want = r.get<std::int32_t>();
    auto& ses = ctx.session();
    (void)ses.ac_init();
    for (std::int32_t i = 0; i < rounds; ++i) {
      auto got = ses.ac_get(want, /*min_count=*/1);
      if (got.granted) ses.ac_free(got.client_id);
    }
    ses.ac_finalize();
  });

  // Deaf registrant: advertises grow appetite and never answers the offer —
  // a guaranteed reservation-timeout in the storm.
  s.program("deaf", [&](core::JobContext& ctx) {
    util::ByteReader r(ctx.info().program_args);
    const auto appetite = r.get<std::int32_t>();
    auto ep = ctx.mpi().process().open_endpoint();
    Registration reg;
    reg.job = ctx.job_id();
    reg.agent = ep->address();
    reg.can_grow = true;
    reg.appetite = appetite;
    util::ByteWriter w;
    put_registration(w, reg);
    const svc::Caller caller(ctx.mpi().process(),
                             ctx.elastic_config().server, {});
    (void)caller.call(torque::MsgType::kElastRegister, std::move(w).take(),
                      {.deadline = svc::deadlines::kControl});
    // Stay alive across at least one offer-timeout window.
    core::interruptible_sleep(ctx, 250ms);
  });

  // Two hogs anchor the shrinkable capacity; the rest of the stream is a
  // seeded mix of requesters and deaf registrants.
  std::vector<torque::JobId> hogs;
  std::vector<torque::JobId> transients;
  for (int i = 0; i < 2; ++i) {
    util::ByteWriter w;
    w.put<std::int32_t>(sets_dist(rng));
    hogs.push_back(
        s.submit_program("hog", /*nodes=*/1, /*acpn=*/0, std::move(w).take()));
  }
  for (int i = 0; i < 4; ++i) {
    if (rng() % 3 == 0) {
      util::ByteWriter w;
      w.put<std::int32_t>(want_dist(rng));
      transients.push_back(s.submit_program("deaf", /*nodes=*/1, /*acpn=*/0,
                                            std::move(w).take()));
    } else {
      util::ByteWriter w;
      w.put<std::int32_t>(rounds_dist(rng));
      w.put<std::int32_t>(want_dist(rng));
      transients.push_back(s.submit_program("requester", /*nodes=*/1,
                                            /*acpn=*/0, std::move(w).take()));
    }
  }

  // Property 3: everything completes. Transients first, then the hogs are
  // told the storm is over.
  for (const auto id : transients) {
    EXPECT_TRUE(s.wait_job(id, 60'000ms).has_value())
        << "transient job " << id << " never finished";
  }
  done = true;
  for (const auto id : hogs) {
    EXPECT_TRUE(s.wait_job(id, 60'000ms).has_value())
        << "hog job " << id << " never finished";
  }
  for (const auto id : transients) ASSERT_NE(s.await_job_trace(id), 0u);
  for (const auto id : hogs) ASSERT_NE(s.await_job_trace(id), 0u);

  // Property 1: no double-grant anywhere — elastic reservations and grants
  // obey the same per-host capacity as everything else.
  auto view = s.trace();
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));

  // Property 2: conservation across the whole storm.
  EXPECT_FALSE(view.named("alloc.assign").empty());
  EXPECT_EQ(view.named("alloc.assign").size(),
            view.named("alloc.release").size());
  for (const auto& n : s.cluster().client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname << " leaked slots";
  }
}

TEST(ElasticProperty, OfferStormSeedA) { run_storm(0xE1A5'0001u); }

TEST(ElasticProperty, OfferStormSeedB) { run_storm(0xE1A5'0002u); }

}  // namespace
}  // namespace dac::elastic
