// End-to-end tests of the elastic negotiation (src/elastic): the three-phase
// offer -> ack/nack -> reconfigure protocol between the Maui utilization
// policies, pbs_server's offer handling, and the job-side ElasticAgent. The core
// acceptance scenario — a scheduler-initiated shrink re-granting capacity to
// a queued dynget — plus the fallback paths (nack, offer timeout) that must
// revert reservations with no slot leak.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "elastic/agent.hpp"
#include "elastic/policy.hpp"
#include "harness/scenario.hpp"
#include "simtime/clock.hpp"
#include "svc/deadlines.hpp"
#include "svc/service_loop.hpp"

namespace dac::elastic {
namespace {

using namespace std::chrono_literals;

int used_slots(core::DacCluster& cluster) {
  int used = 0;
  for (const auto& n : cluster.client().stat_nodes()) used += n.used;
  return used;
}

// Polls an atomic flag from the (sim-actor) test thread.
void await_flag(const std::atomic<bool>& flag,
                std::chrono::milliseconds timeout = 30'000ms) {
  ASSERT_TRUE(testing::await([&] { return flag.load(); }, timeout, 2ms))
      << "flag never raised within the window";
}

// A registered-but-unhelpful elastic participant: announces capabilities via
// kElastRegister like a real ElasticAgent, then either nacks every offer or
// ignores them entirely — the two fallback paths the server must absorb
// without leaking the reservation.
class StubAgent {
 public:
  enum class Mode { kNackAll, kDeaf };

  StubAgent(vnet::Process& proc, torque::JobId job, vnet::Address server,
            Mode mode)
      : proc_(proc), job_(job), server_(server), mode_(mode),
        ep_(proc.open_endpoint()) {
    if (mode_ == Mode::kNackAll) {
      svc::ServiceConfig cfg;
      cfg.name = "elastic-stub";
      loop_ = std::make_unique<svc::ServiceLoop>(*ep_, cfg);
      auto& loop = *loop_;
      using torque::MsgType;
      loop.on(MsgType::kElastOffer,
              [this](const svc::Request&, svc::Responder& resp) {
                util::ByteWriter w;
                w.put_bool(false);  // the answer is the nack
                resp.ok(std::move(w).take());
                ++nacks_;
              });
      loop.on(MsgType::kElastReconfig,
              [](const svc::Request&, svc::Responder&) {});
      thread_.emplace([this] { loop_->run(); });
    }
  }

  ~StubAgent() {
    ep_->close();
    if (thread_) thread_->join();
  }

  void announce(bool can_grow, bool can_shrink, std::int32_t appetite) {
    Registration reg;
    reg.job = job_;
    reg.agent = ep_->address();
    reg.can_grow = can_grow;
    reg.can_shrink = can_shrink;
    reg.appetite = appetite;
    util::ByteWriter w;
    put_registration(w, reg);
    const svc::Caller caller(proc_, server_, {});
    (void)caller.call(torque::MsgType::kElastRegister, std::move(w).take(),
                      {.deadline = svc::deadlines::kControl});
  }

  [[nodiscard]] int nacks() const { return nacks_.load(); }

 private:
  vnet::Process& proc_;
  torque::JobId job_;
  vnet::Address server_;
  Mode mode_;
  std::unique_ptr<vnet::Endpoint> ep_;
  std::unique_ptr<svc::ServiceLoop> loop_;
  std::atomic<int> nacks_{0};
  std::optional<simtime::ActorThread> thread_;
};

// The acceptance scenario of the subsystem: a hog job holds both
// accelerators; a second job's dynget queues; the ShrinkUnderPressure policy
// negotiates the hog's newest set back and the starved request is granted
// from the reclaimed capacity — with slot accounting conserved throughout.
TEST(ElasticNegotiation, ShrinkRegrantsStarvedDynget) {
  std::atomic<bool> hog_ready{false};
  std::atomic<bool> done{false};
  std::atomic<int> hog_final_acs{-1};
  std::atomic<bool> requester_granted{false};

  testing::Scenario s;
  s.compute_nodes(2).accel_nodes(2);
  s.config().elastic_policy = std::make_shared<ShrinkUnderPressurePolicy>();

  s.program("hog", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    auto first = ses.ac_get(1);
    ASSERT_TRUE(first.granted);
    auto second = ses.ac_get(1);
    ASSERT_TRUE(second.granted);

    auto cfg = ctx.elastic_config();
    cfg.accept_shrink = true;
    ElasticAgent agent(ctx.mpi().process(), cfg);
    agent.on_shrink([&](const Reconfig& r) { ses.ac_detach(r.client_id); });
    agent.announce();
    hog_ready = true;

    while (!done.load()) (void)agent.service(5ms);
    // Grace drain: a reconfigure committed just before `done` must still be
    // applied before the session is torn down.
    const auto grace = simtime::now() + 200ms;
    while (simtime::now() < grace) (void)agent.service(5ms);
    agent.stop();

    hog_final_acs = ses.accelerator_count();
    // The newest set went back to the scheduler; the first is still ours.
    ses.ac_free(first.client_id);
    ses.ac_finalize();
  });

  s.program("requester", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    auto got = ses.ac_get(1);
    requester_granted = got.granted;
    if (got.granted) {
      const auto p = ses.ac_mem_alloc(got.handles[0], 64);
      ses.ac_mem_free(got.handles[0], p);
      ses.ac_free(got.client_id);
    }
    ses.ac_finalize();
  });

  const auto hog_id = s.submit_program("hog", /*nodes=*/1, /*acpn=*/0);
  await_flag(hog_ready);
  const auto req_id = s.submit_program("requester", /*nodes=*/1, /*acpn=*/0);
  ASSERT_TRUE(s.wait_job(req_id, 30'000ms).has_value());
  done = true;
  ASSERT_TRUE(s.wait_job(hog_id, 30'000ms).has_value());

  EXPECT_TRUE(requester_granted.load())
      << "the starved dynget was never re-granted from the shrink";
  EXPECT_EQ(hog_final_acs.load(), 1) << "hog should have lost its newest set";
  EXPECT_GE(s.cluster().scheduler_stats().elast_proposed, 1u);
  EXPECT_EQ(used_slots(s.cluster()), 0);

  // The negotiation joins the starved requester's trace: one causal tree
  // from its dynget through the proposal to the reconfigure.
  ASSERT_NE(s.await_job_trace(req_id), 0u);
  auto view = s.trace();
  const auto req_trace = view.trace_of_job(req_id);
  ASSERT_NE(req_trace, 0u);
  bool propose_in_req_trace = false;
  for (const auto* span : view.named("maui.propose_shrink")) {
    propose_in_req_trace |= span->trace == req_trace;
  }
  EXPECT_TRUE(propose_in_req_trace)
      << "the shrink proposal did not join the requester's trace";
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));
  EXPECT_EQ(view.named("alloc.assign").size(),
            view.named("alloc.release").size());

  // The proposal rode in the decide pass's one DYN_DECIDE and the ack in
  // the offer's reply: the only elastic message the server served was the
  // agent's registration, and no cycle sent more than one batch.
  const auto metrics = s.cluster().metrics_snapshot();
  for (const auto& rpc : metrics.rpcs) {
    if (!rpc.name.starts_with("ELAST_")) continue;
    EXPECT_EQ(rpc.name, "ELAST_REGISTER") << rpc.name << " served";
  }
  const auto* decide =
      metrics.find(torque::as_u32(torque::MsgType::kDynDecide));
  ASSERT_NE(decide, nullptr);
  EXPECT_LE(decide->calls, s.cluster().scheduler_stats().cycles);
}

// Idle-expansion: a job with appetite is grown unprompted while the pool
// idles; the application attaches the granted set with ac_attach and later
// releases it through the ordinary ac_free path.
TEST(ElasticNegotiation, GrowOfferAttachesAndFreesCleanly) {
  std::atomic<bool> grew{false};

  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.config().elastic_policy = std::make_shared<ExpandIdlePolicy>();

  s.program("eager", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();

    auto cfg = ctx.elastic_config();
    cfg.accept_grow = true;
    cfg.appetite = 1;
    ElasticAgent agent(ctx.mpi().process(), cfg);
    std::uint64_t granted_client = 0;
    agent.on_grow([&](const Reconfig& r) {
      auto handles = ses.ac_attach(
          r.client_id, std::vector<vnet::NodeId>(r.nodes.begin(),
                                                 r.nodes.end()));
      ASSERT_EQ(handles.size(), r.hosts.size());
      const auto p = ses.ac_mem_alloc(handles.front(), 128);
      ses.ac_mem_free(handles.front(), p);
      granted_client = r.client_id;
    });
    agent.announce();

    const auto deadline = simtime::now() + 20'000ms;
    while (granted_client == 0 && simtime::now() < deadline) {
      (void)agent.service(10ms);
    }
    agent.stop();
    ASSERT_NE(granted_client, 0u) << "grow offer never arrived";
    grew = ses.accelerator_count() == 1;
    ses.ac_free(granted_client);
    ses.ac_finalize();
  });

  const auto id = s.submit_program("eager", /*nodes=*/1, /*acpn=*/0);
  ASSERT_TRUE(s.wait_job(id, 30'000ms).has_value());
  EXPECT_TRUE(grew.load());
  EXPECT_GE(s.cluster().scheduler_stats().elast_proposed, 1u);
  EXPECT_EQ(used_slots(s.cluster()), 0);
}

// A grow's hosts come out of the decide pass's own view, so a queued job
// that needs the accelerator the grow takes is not started onto it in the
// same pass: the server refuses nothing. The grower frees its dynget's set
// and registers before the release lands, so the freed accelerator, the
// registration and the queued job meet in one pass.
TEST(ElasticNegotiation, GrowPassStartsNothingOnItsReservation) {
  std::atomic<bool> holding{false};
  std::atomic<bool> queued{false};
  std::atomic<bool> grew{false};

  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(1).clock_mode(simtime::Mode::kDiscreteEvent);
  s.config().elastic_policy = std::make_shared<ExpandIdlePolicy>();

  s.program("grower", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    const auto got = ses.ac_get(1);
    ASSERT_TRUE(got.granted);
    holding = true;
    await_flag(queued);

    auto cfg = ctx.elastic_config();
    cfg.accept_grow = true;
    cfg.appetite = 1;
    ElasticAgent agent(ctx.mpi().process(), cfg);
    agent.on_grow([&](const Reconfig&) { grew = true; });
    ses.ac_free(got.client_id);
    agent.announce();
    const auto deadline = simtime::now() + 20'000ms;
    while (!grew.load() && simtime::now() < deadline) {
      (void)agent.service(10ms);
    }
    agent.stop();
    ses.ac_finalize();
  });
  s.program("taker", [](core::JobContext&) {});

  const auto grower = s.submit_program("grower", /*nodes=*/1, /*acpn=*/0);
  await_flag(holding);
  const auto taker = s.submit_program("taker", /*nodes=*/1, /*acpn=*/1);
  queued = true;
  ASSERT_TRUE(s.wait_job(grower, 30'000ms).has_value());
  ASSERT_TRUE(s.wait_job(taker, 30'000ms).has_value());

  EXPECT_TRUE(grew.load()) << "the idle accelerator was never offered";
  const auto stats = s.cluster().scheduler_stats();
  EXPECT_EQ(stats.elast_proposed, 1u);
  EXPECT_EQ(stats.refused, 0u);
  EXPECT_EQ(stats.jobs_started, 2u);
  EXPECT_EQ(used_slots(s.cluster()), 0);
}

// Nack fallback: the job declines a grow offer; the reservation made at
// propose time must be released — afterwards the same job can take the whole
// pool through a plain dynget.
TEST(ElasticNegotiation, NackReleasesGrowReservation) {
  std::atomic<bool> pool_intact{false};

  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.config().elastic_policy = std::make_shared<ExpandIdlePolicy>();

  s.program("refuser", [&](core::JobContext& ctx) {
    StubAgent stub(ctx.mpi().process(), ctx.job_id(),
                   ctx.elastic_config().server, StubAgent::Mode::kNackAll);
    stub.announce(/*can_grow=*/true, /*can_shrink=*/false, /*appetite=*/2);
    ASSERT_TRUE(testing::await([&] { return stub.nacks() >= 1; }, 20'000ms))
        << "no offer reached the stub";

    // The nack must have reverted the reservation: a dynget for the whole
    // pool succeeds once the release has landed.
    auto& ses = ctx.session();
    (void)ses.ac_init();
    (void)testing::await(
        [&] {
          auto got = ses.ac_get(2);
          if (!got.granted) return false;
          pool_intact = true;
          ses.ac_free(got.client_id);
          return true;
        },
        20'000ms, 10ms);
    ses.ac_finalize();
  });

  const auto id = s.submit_program("refuser", /*nodes=*/1, /*acpn=*/0);
  ASSERT_TRUE(s.wait_job(id, 60'000ms).has_value());
  EXPECT_TRUE(pool_intact.load()) << "grow reservation leaked after nack";
  EXPECT_EQ(used_slots(s.cluster()), 0);
}

// Timeout fallback: a registered job that never answers offers. The server
// expires the offer at its call deadline, releases the reservation, and
// clears the capability so the deaf job is not offered again.
TEST(ElasticNegotiation, OfferTimeoutReleasesGrowReservation) {
  std::atomic<bool> pool_intact{false};

  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.config().elastic_policy = std::make_shared<ExpandIdlePolicy>();
  s.config().timing.elastic_offer_timeout = 100ms;

  s.program("deaf", [&](core::JobContext& ctx) {
    StubAgent stub(ctx.mpi().process(), ctx.job_id(),
                   ctx.elastic_config().server, StubAgent::Mode::kDeaf);
    stub.announce(/*can_grow=*/true, /*can_shrink=*/false, /*appetite=*/2);
    // Let a proposal actually reserve the pool before contending for it —
    // otherwise the dynget below could win the race and prove nothing.
    ASSERT_TRUE(testing::await(
        [&] { return s.cluster().scheduler_stats().elast_proposed >= 1; },
        20'000ms));
    auto& ses = ctx.session();
    (void)ses.ac_init();
    (void)testing::await(
        [&] {
          auto got = ses.ac_get(2);
          if (!got.granted) return false;
          pool_intact = true;
          ses.ac_free(got.client_id);
          return true;
        },
        20'000ms, 20ms);
    ses.ac_finalize();
  });

  const auto id = s.submit_program("deaf", /*nodes=*/1, /*acpn=*/0);
  ASSERT_TRUE(s.wait_job(id, 60'000ms).has_value());
  EXPECT_TRUE(pool_intact.load()) << "grow reservation leaked after timeout";
  EXPECT_EQ(used_slots(s.cluster()), 0);
}

}  // namespace
}  // namespace dac::elastic
