// Dynamic requests around a release. pbs_dynfree is answered before the
// mother superior hands the slots back (paper §III-D), so a request the job
// makes in that window waits at the server until MS_RELEASE_DONE instead of
// reaching the scheduler while its slots are still taken. A job that ends
// rejects every request it still has, waiting ones included. Virtual clock:
// the test acts at exact instants, one millisecond apart.
#include <gtest/gtest.h>

#include <optional>

#include "hand_server.hpp"

namespace dac::torque {
namespace {

using testing::HandServer;

TEST(DynRelease, GetDuringAReleaseWaitsForIt) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);

  std::optional<DynGetReply> first;
  auto g1 = s.dynget_now(id, first);
  s.settle();
  auto q = s.queue();
  ASSERT_EQ(q.dyn.size(), 1u);
  s.grant_dyn(q.dyn[0].dyn_id, {"ac0"});
  g1->join();
  ASSERT_TRUE(first.has_value() && first->granted);

  // Freed, but the mother superior has not released ac0 yet.
  s.client().dynfree(id, first->client_id);
  std::optional<DynGetReply> second;
  auto g2 = s.dynget_now(id, second);
  s.settle();
  EXPECT_TRUE(s.queue().dyn.empty());
  EXPECT_EQ(s.client().stat_job(id)->state, JobState::kRunning);

  s.release_done(id, first->client_id);
  s.settle();
  q = s.queue();
  ASSERT_EQ(q.dyn.size(), 1u);
  EXPECT_EQ(s.client().stat_job(id)->state, JobState::kDynQueued);
  s.grant_dyn(q.dyn[0].dyn_id, {"ac0"});
  g2->join();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->granted);
}

TEST(DynRelease, CompletionRejectsActiveAndWaitingRequests) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  const auto id = s.submit();
  s.run_job(id);

  std::optional<DynGetReply> active;
  std::optional<DynGetReply> waiting;
  auto g1 = s.dynget_now(id, active);
  s.settle();
  auto g2 = s.dynget_now(id, waiting);
  s.settle();
  ASSERT_EQ(s.queue().dyn.size(), 1u);  // one at a time per job

  s.complete_job(id);
  g1->join();
  g2->join();
  ASSERT_TRUE(active.has_value());
  ASSERT_TRUE(waiting.has_value());
  EXPECT_FALSE(active->granted);
  EXPECT_FALSE(waiting->granted);
  // No waiter was handed to the scheduler on the way out.
  EXPECT_TRUE(s.queue().dyn.empty());
  EXPECT_EQ(s.client().stat_job(id)->state, JobState::kComplete);
}

}  // namespace
}  // namespace dac::torque
