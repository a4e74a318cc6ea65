// Terminal jobs retire: pbs_server keeps a finished job's full record for a
// retention window of virtual time, then answers for it from a tombstone
// (id, final state, exit status). The window is a virtual second, so these
// tests run on the DiscreteEvent clock only.
#include <gtest/gtest.h>

#include <algorithm>

#include "hand_server.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;
using testing::HandServer;

// Past pbs_server's retention window (1 virtual second).
constexpr auto kPastRetention = 2s;

void sleep_virtual(simtime::Duration d) {
  simtime::sleep_until(simtime::now() + d);
}

bool lists(const std::vector<JobInfo>& jobs, JobId id) {
  return std::any_of(jobs.begin(), jobs.end(),
                     [id](const JobInfo& j) { return j.id == id; });
}

TEST(RetentionTest, RetiredJobAnswersFromItsTombstone) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  const auto id = s.submit();
  s.run_job(id);
  s.complete_job(id);
  HandServer::settle();

  // Inside the window the full record answers.
  sleep_virtual(500ms);
  const auto kept = s.client().stat_job(id);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->state, JobState::kComplete);
  EXPECT_EQ(kept->compute_hosts, std::vector<std::string>{"cn0"});
  EXPECT_GE(kept->end_time, 0.0);

  sleep_virtual(kPastRetention);
  const auto stat = s.client().stat_job(id);
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->id, id);
  EXPECT_EQ(stat->state, JobState::kComplete);
  EXPECT_EQ(stat->exit_status, kExitOk);
  EXPECT_TRUE(stat->compute_hosts.empty());  // the record itself is gone
  EXPECT_LT(stat->end_time, 0.0);

  // A retired job is terminal: a wait for any state answers at once.
  const auto start = simtime::now();
  const auto waited = s.client().wait_for_state(id, JobState::kRunning, 10s);
  ASSERT_TRUE(waited.has_value());
  EXPECT_EQ(waited->state, JobState::kComplete);
  EXPECT_LT(simtime::now() - start, 1s);

  const auto all = s.client().stat_jobs();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.front().id, id);
  EXPECT_EQ(all.front().state, JobState::kComplete);
}

TEST(RetentionTest, CancelledJobKeepsItsFinalStateAndExitStatus) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  const auto id = s.submit();
  s.client().delete_job(id);
  sleep_virtual(kPastRetention);
  const auto stat = s.client().stat_job(id);
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->state, JobState::kCancelled);
  EXPECT_EQ(stat->exit_status, kExitOk);
  EXPECT_TRUE(stat->spec.program.empty());
  // qdel of a retired id finds no job.
  EXPECT_THROW(s.client().delete_job(id), std::exception);
}

TEST(RetentionTest, FullFetchShipsOnlyLiveJobsAndListsInIdOrder) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(s.submit());
  // Jobs 0..5 run and complete; 6 and 7 stay queued.
  for (int i = 0; i < 6; ++i) {
    s.run_job(ids[static_cast<std::size_t>(i)]);
    s.complete_job(ids[static_cast<std::size_t>(i)]);
  }
  HandServer::settle();
  const auto check_live = [&] {
    const auto full = s.queue();
    ASSERT_EQ(full.jobs.size(), 2u);
    EXPECT_EQ(full.jobs[0].id, ids[6]);
    EXPECT_EQ(full.jobs[1].id, ids[7]);
  };
  check_live();
  sleep_virtual(kPastRetention);
  check_live();

  // STAT_JOBS merges live records and tombstones in id order.
  const auto all = s.client().stat_jobs();
  ASSERT_EQ(all.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(all[i].id, ids[i]);
    EXPECT_EQ(all[i].state,
              i < 6 ? JobState::kComplete : JobState::kQueued);
  }
  EXPECT_FALSE(lists(s.queue().jobs, ids[0]));
}

TEST(RetentionTest, DeltaShipsTheTombstoneOfAJobRetiredBeforeTheFetch) {
  HandServer s(simtime::Mode::kDiscreteEvent);
  const auto id = s.submit();
  s.run_job(id);
  const auto epoch = s.queue().epoch;  // drains the dirty set
  s.complete_job(id);
  sleep_virtual(kPastRetention);  // retires before any fetch saw the end

  util::ByteWriter w;
  w.put<std::uint64_t>(epoch);
  w.put_bool(false);  // a delta, not a full fetch
  auto reply = rpc::call(s.cluster().node(2), s.server(), MsgType::kGetSched,
                         std::move(w).take());
  util::ByteReader r(reply);
  const auto delta = get_sched_delta(r);
  ASSERT_FALSE(delta.full);
  ASSERT_TRUE(lists(delta.jobs, id));
  EXPECT_EQ(delta.jobs.front().state, JobState::kComplete);
}

}  // namespace
}  // namespace dac::torque
