// Changes to a running job's dynamic sets, started by either side: the
// application (pbs_dynget / pbs_dynfree) or the scheduler (elastic offers).
// pbs_server keeps both in one table, so these cases pin how the two meet:
// a shrink the agent accepted holds the job's next dynget like a dynfree's
// release does, only scheduler-started changes count as a negotiation in
// flight, an offer ends at exactly its deadline, and an offer that ended
// (timed out, or its job did) moves no slot when its answer arrives late.
// The test plays Maui, whose proposals ride in DYN_DECIDE next to its dynget
// decisions, the mother superior and the agent. Virtual clock: the test
// acts at exact instants.
#include <gtest/gtest.h>

#include <optional>

#include "hand_server.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;
using elastic::OfferKind;
using testing::HandServer;

// Runs a dynget(1) for `id` and grants it `host`; returns the client id.
std::uint64_t grant_one(HandServer& s, JobId id, const std::string& host) {
  std::optional<DynGetReply> reply;
  auto getter = s.dynget_now(id, reply);
  s.settle();
  const auto q = s.queue();
  EXPECT_EQ(q.dyn.size(), 1u);
  if (q.dyn.empty()) return 0;
  s.grant_dyn(q.dyn[0].dyn_id, {host});
  getter->join();
  EXPECT_TRUE(reply.has_value() && reply->granted);
  return reply.has_value() ? reply->client_id : 0;
}

TEST(SetOp, AcceptedShrinkHoldsTheNextDyngetUntilReleaseDone) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);
  const auto set = grant_one(s, id, "ac0");
  s.register_agent(id, /*can_grow=*/false, /*can_shrink=*/true);

  const auto offer = s.propose(id, OfferKind::kShrink);
  s.ack(offer, /*accept=*/true);

  // ac0 is on its way back, but the mother superior has not released it.
  std::optional<DynGetReply> next;
  auto getter = s.dynget_now(id, next);
  s.settle();
  EXPECT_TRUE(s.queue().dyn.empty());
  EXPECT_EQ(s.client().stat_job(id)->state, JobState::kRunning);
  EXPECT_EQ(s.used("ac0"), 1);

  s.release_done(id, set);
  s.settle();
  const auto q = s.queue();
  ASSERT_EQ(q.dyn.size(), 1u);
  EXPECT_EQ(s.used("ac0"), 0);
  s.grant_dyn(q.dyn[0].dyn_id, {"ac0"});
  getter->join();
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(next->granted);
  EXPECT_EQ(s.used("ac0"), 1);
}

TEST(SetOp, OfferPendingCountsOnlySchedulerStartedChanges) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  s.register_node("ac1", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);
  const auto freed = grant_one(s, id, "ac0");
  const auto shrunk = grant_one(s, id, "ac1");
  s.register_agent(id, /*can_grow=*/false, /*can_shrink=*/true);

  // The application's own release is not a negotiation.
  s.client().dynfree(id, freed);
  EXPECT_FALSE(s.view(id).offer_pending);

  // The shrink offers the newest set and stays in flight once accepted...
  const auto offer = s.propose(id, OfferKind::kShrink);
  EXPECT_TRUE(s.view(id).offer_pending);
  s.ack(offer, /*accept=*/true);
  EXPECT_TRUE(s.view(id).offer_pending);
  // ...past the end of the other release...
  s.release_done(id, freed);
  s.settle();
  EXPECT_TRUE(s.view(id).offer_pending);
  EXPECT_EQ(s.used("ac0"), 0);
  // ...until its own set is back.
  s.release_done(id, shrunk);
  s.settle();
  EXPECT_FALSE(s.view(id).offer_pending);
  EXPECT_EQ(s.used("ac1"), 0);
}

// A silent agent: its grow reservation is freed at the offer's deadline,
// elastic_offer_timeout after the offer left, not at a later liveness tick
// (the tick here is far slower than the timeout).
TEST(SetOp, SilentAgentsOfferEndsAtExactlyItsDeadline) {
  auto timing = BatchTiming::fast();
  timing.elastic_offer_timeout = 30ms;
  timing.mom_heartbeat_interval = 200ms;
  HandServer s(simtime::Mode::kDiscreteEvent, timing);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);
  s.register_agent(id, /*can_grow=*/true, /*can_shrink=*/false,
                   /*appetite=*/1);

  const auto offered = simtime::now();
  (void)s.propose(id, OfferKind::kGrow, {"ac0"});
  simtime::sleep_until(offered + timing.elastic_offer_timeout - 1ms);
  EXPECT_EQ(s.used("ac0"), 1);  // still reserved for the offer
  EXPECT_TRUE(s.view(id).offer_pending);
  simtime::sleep_until(offered + timing.elastic_offer_timeout + 1ms);
  EXPECT_EQ(s.used("ac0"), 0);
  EXPECT_FALSE(s.view(id).offer_pending);
  EXPECT_FALSE(s.view(id).can_grow);  // the timeout cleared it
}

TEST(SetOp, ReplyAfterTheDeadlineSettlesNothingAndMovesNoSlot) {
  auto timing = BatchTiming::fast();
  timing.elastic_offer_timeout = 30ms;
  HandServer s(simtime::Mode::kDiscreteEvent, timing);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  s.register_node("ac1", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);
  s.register_agent(id, /*can_grow=*/true, /*can_shrink=*/false,
                   /*appetite=*/1);

  const auto offer = s.propose(id, OfferKind::kGrow, {"ac0"});
  EXPECT_EQ(s.used("ac0"), 1);  // reserved for the offer
  simtime::sleep_until(simtime::now() + timing.elastic_offer_timeout + 1ms);
  EXPECT_EQ(s.used("ac0"), 0);
  EXPECT_FALSE(s.view(id).offer_pending);

  // The agent re-registers and takes a new offer; the first offer's late
  // accept must commit neither offer.
  s.register_agent(id, /*can_grow=*/true, /*can_shrink=*/false,
                   /*appetite=*/1);
  (void)s.propose(id, OfferKind::kGrow, {"ac1"});
  s.ack(offer, /*accept=*/true);
  s.settle();
  EXPECT_EQ(s.used("ac0"), 0);
  EXPECT_EQ(s.used("ac1"), 1);  // still only reserved
  EXPECT_TRUE(s.view(id).offer_pending);
  EXPECT_TRUE(s.client().stat_job(id)->dyn_accel_hosts.empty());
}

TEST(SetOp, CompletionDuringAGrowOfferFreesTheReservationOnce) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  s.register_node("ac1", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);
  s.register_agent(id, /*can_grow=*/true, /*can_shrink=*/false,
                   /*appetite=*/2);
  const auto offer = s.propose(id, OfferKind::kGrow, {"ac0", "ac1"});
  EXPECT_EQ(s.used("ac0"), 1);
  EXPECT_EQ(s.used("ac1"), 1);

  s.complete_job(id);
  s.settle();
  EXPECT_EQ(s.used("ac0"), 0);
  EXPECT_EQ(s.used("ac1"), 0);
  EXPECT_EQ(s.used("cn0"), 0);

  // A second job takes the freed accelerators; the first job's late ack
  // must neither commit the offer nor free them a second time.
  const auto next = s.submit();
  s.run_job(next);
  (void)grant_one(s, next, "ac0");
  (void)grant_one(s, next, "ac1");
  s.ack(offer, /*accept=*/true);
  s.settle();
  EXPECT_EQ(s.used("ac0"), 1);
  EXPECT_EQ(s.used("ac1"), 1);
  EXPECT_TRUE(s.client().stat_job(id)->dyn_accel_hosts.empty());
}

// Maui's decide pass ships its elastic proposals and dynget decisions in
// one DYN_DECIDE. Each item succeeds or fails on its own: a proposal for a
// job with no agent is refused without reserving anything, and the items
// after it still apply.
TEST(SetOp, OneDynDecideCarriesProposalsAndGrants) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  s.register_node("ac1", NodeKind::kAccelerator, 1);
  const auto grower = s.submit();
  s.run_job(grower);
  s.register_agent(grower, /*can_grow=*/true, /*can_shrink=*/false,
                   /*appetite=*/1);
  const auto requester = s.submit();  // no agent
  s.run_job(requester);
  std::optional<DynGetReply> reply;
  auto getter = s.dynget_now(requester, reply);
  s.settle();
  const auto q = s.queue();
  ASSERT_EQ(q.dyn.size(), 1u);

  using Kind = DynDecision::Kind;
  EXPECT_EQ(s.decide({{.id = grower, .kind = Kind::kGrow, .hosts = {"ac0"}},
                      {.id = requester, .kind = Kind::kGrow, .hosts = {"ac1"}},
                      {.id = q.dyn[0].dyn_id,
                       .kind = Kind::kGrant,
                       .hosts = {"ac1"}}}),
            (std::vector<bool>{true, false, true}));

  // The valid grow holds its reservation, offered but not attached.
  const auto offer = s.next_offer();
  EXPECT_EQ(offer.job, grower);
  EXPECT_EQ(offer.kind, OfferKind::kGrow);
  EXPECT_EQ(offer.hosts, std::vector<std::string>{"ac0"});
  EXPECT_EQ(s.used("ac0"), 1);
  EXPECT_TRUE(s.view(grower).offer_pending);
  EXPECT_TRUE(s.client().stat_job(grower)->dyn_accel_hosts.empty());

  // The refused proposal reserved nothing: the grant took ac1.
  getter->join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->granted);
  EXPECT_EQ(reply->hosts, std::vector<std::string>{"ac1"});
  EXPECT_EQ(s.used("ac1"), 1);
  EXPECT_EQ(s.client().stat_job(requester)->dyn_accel_hosts,
            std::vector<std::string>{"ac1"});
}

}  // namespace
}  // namespace dac::torque
