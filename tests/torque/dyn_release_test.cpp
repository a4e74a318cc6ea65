// Dynamic requests around a release. pbs_dynfree is answered before the
// mother superior hands the slots back (paper §III-D), so a request the job
// makes in that window waits at the server until MS_RELEASE_DONE instead of
// reaching the scheduler while its slots are still taken. A job that ends,
// by completion or by qdel, rejects every request it still has, waiting
// ones included. Virtual clock:
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

TEST(DynRelease, DeleteRunningJobRejectsItsDyngets) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  s.register_node("ac0", NodeKind::kAccelerator, 1);
  const auto id = s.submit();
  s.run_job(id);

  std::optional<DynGetReply> active;
  std::optional<DynGetReply> waiting;
  auto g1 = s.dynget_now(id, active);
  s.settle();
  auto g2 = s.dynget_now(id, waiting);
  s.settle();
  const auto q = s.queue();
  ASSERT_EQ(q.dyn.size(), 1u);
  const auto old_dyn = q.dyn[0].dyn_id;

  // Both held replies are answered in the instant of the qdel.
  const auto deleted_at = simtime::now();
  s.client().delete_job(id);
  g1->join();
  g2->join();
  EXPECT_LE(simtime::now() - deleted_at, std::chrono::milliseconds(1));
  ASSERT_TRUE(active.has_value());
  ASSERT_TRUE(waiting.has_value());
  EXPECT_FALSE(active->granted);
  EXPECT_FALSE(waiting->granted);
  EXPECT_TRUE(s.queue().dyn.empty());

  // A decision Maui made on its older view applies nothing.
  s.grant_dyn(old_dyn, {"ac0"});
  EXPECT_TRUE(s.client().stat_job(id)->dyn_accel_hosts.empty());
  EXPECT_EQ(s.client().stat_job(id)->state, JobState::kCancelled);
  for (const auto& n : s.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname;
  }
}

}  // namespace
}  // namespace dac::torque
