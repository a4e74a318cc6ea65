// A lost SCHED_WAKE through real daemons. Each wake carries the delta the
// scheduler's mirror needs next, so losing one leaves a gap in the epoch
// sequence: the next wake's delta must not be folded, and the scheduler
// must repair its view with one full fetch. Nothing may be decided twice
// or never: every job starts once and every dynget gets one decision.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/fault_one.hpp"
#include "harness/scenario.hpp"
#include "simtime/clock.hpp"
#include "torque/ifl.hpp"
#include "util/sync.hpp"

namespace dac::torque {
namespace {

using namespace std::chrono_literals;

TEST(LostWake, EveryJobAndDyngetIsDecidedOnce) {
  constexpr int kJobs = 4;
  std::atomic<bool> release{false};  // outlives the scenario
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.clock_mode(simtime::Mode::kDiscreteEvent);
  s.program("hold", [&release](core::JobContext&) {
    (void)testing::await([&release] { return release.load(); }, 120'000ms);
  });
  auto& cluster = s.boot();
  // The second wake: the first started a job, so the scheduler's mirror
  // holds deltas and the third wake arrives one epoch too far ahead.
  const auto drop = std::make_shared<testing::FaultOne>(MsgType::kSchedWake, 2,
                                                        testing::kDrop);
  cluster.vcluster().fabric().set_fault_injector(drop);

  const auto submitted = simtime::now();
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/0));
  }
  {
    auto client = cluster.client();
    for (const auto id : ids) {
      const auto info = client.wait_for_state(id, JobState::kRunning, 60'000ms);
      ASSERT_TRUE(info.has_value() && info->state == JobState::kRunning)
          << "job " << id << " never started";
    }
  }
  // The gap is repaired at the next wake, not left to the idle poll or the
  // rescan backstop: a mirror that folded past it would never see the job
  // the lost delta carried until a full fetch.
  EXPECT_LT(simtime::now() - submitted, s.config().timing.sched_cycle_interval);

  // One dynget per job on a 2-slot pool, all at once: some are granted,
  // the rest rejected, each exactly once.
  Mutex mu{"test.lost_wake"};
  int decided = 0;
  {
    std::vector<std::unique_ptr<Ifl>> clients;
    std::vector<simtime::ActorThread> threads;
    for (const auto id : ids) {
      clients.push_back(
          std::make_unique<Ifl>(cluster.head(), cluster.server_address()));
      Ifl* ifl = clients.back().get();
      threads.emplace_back([&, ifl, id] {
        const auto reply = ifl->dynget(id, /*count=*/1, /*min_count=*/1,
                                       NodeKind::kAccelerator, 60'000ms);
        ScopedLock lock(mu);
        ++decided;
      });
    }
  }  // joins every caller

  release.store(true);
  for (const auto id : ids) ASSERT_TRUE(s.wait_job(id, 60'000ms).has_value());
  for (const auto id : ids) ASSERT_NE(s.await_job_trace(id), 0u);

  EXPECT_GE(drop->seen(), 3) << "the lost wake was never followed by one";
  EXPECT_EQ(decided, kJobs);
  const auto view = s.trace();
  std::map<std::string, int> starts;
  for (const auto* span : view.named("maui.run_job")) {
    ++starts[testing::TraceView::note(*span, "job")];
  }
  EXPECT_EQ(starts.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [job, n] : starts) EXPECT_EQ(n, 1) << "job " << job;
  std::map<std::string, int> decisions;
  for (const auto* name : {"maui.grant_dyn", "maui.reject_dyn"}) {
    for (const auto* span : view.named(name)) {
      ++decisions[testing::TraceView::note(*span, "dyn")];
    }
  }
  EXPECT_EQ(decisions.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [dyn, n] : decisions) EXPECT_EQ(n, 1) << "dyn " << dyn;
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));
}

}  // namespace
}  // namespace dac::torque
