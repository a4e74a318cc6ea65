// Decisions in flight through real daemons. Batched, a scheduler cycle ships
// its RUN_JOB and DYN_DECIDE and does not wait: until a reply arrives, later
// cycles decide as if the batch took effect. These tests lose and delay
// those batches and check that nothing is decided twice or never, that no
// later cycle takes an assumed job's hosts, that the serial ablation still
// waits for each reply, and that every job's evaluation is billed before it
// starts. Every test runs under both clock modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/clock_mode.hpp"
#include "harness/fault_one.hpp"
#include "harness/scenario.hpp"
#include "simtime/clock.hpp"
#include "torque/ifl.hpp"
#include "util/sync.hpp"

namespace dac::maui {
namespace {

using namespace std::chrono_literals;
using simtime::Mode;
using torque::JobId;
using torque::JobState;
using torque::MsgType;

using testing::FaultOne;
using testing::kDrop;

constexpr vnet::FaultDecision kDelay20ms{.extra_delay = 20ms};

class InFlightTest : public ::testing::TestWithParam<Mode> {
 protected:
  // A job program that holds its slots until release_all().
  void add_hold_program(testing::Scenario& s) {
    s.clock_mode(GetParam());
    s.program("hold", [this](core::JobContext&) {
      (void)testing::await([this] { return release_.load(); }, 120'000ms);
    });
  }
  void release_all() { release_.store(true); }

  [[nodiscard]] bool virtual_clock() const {
    return GetParam() == Mode::kDiscreteEvent;
  }

  static void expect_running(testing::Scenario& s,
                             const std::vector<JobId>& ids) {
    auto client = s.cluster().client();
    for (const auto id : ids) {
      const auto info = client.wait_for_state(id, JobState::kRunning, 60'000ms);
      ASSERT_TRUE(info.has_value() && info->state == JobState::kRunning)
          << "job " << id << " never started";
    }
  }

  // Releases the jobs, waits for them and for their traces to go quiet.
  void finish(testing::Scenario& s, const std::vector<JobId>& ids) {
    release_all();
    for (const auto id : ids) ASSERT_TRUE(s.wait_job(id, 60'000ms));
    for (const auto id : ids) ASSERT_NE(s.await_job_trace(id), 0u);
  }

  // One dynget per job, all at once; returns once every caller has its
  // answer, with the number of answers.
  static int dynget_each(testing::Scenario& s, const std::vector<JobId>& ids) {
    Mutex mu{"test.in_flight"};
    int answered = 0;
    std::vector<std::unique_ptr<torque::Ifl>> clients;
    {
      std::vector<simtime::ActorThread> threads;
      for (const auto id : ids) {
        clients.push_back(std::make_unique<torque::Ifl>(
            s.cluster().head(), s.cluster().server_address()));
        torque::Ifl* ifl = clients.back().get();
        threads.emplace_back([&, ifl, id] {
          (void)ifl->dynget(id, /*count=*/1, /*min_count=*/1,
                            torque::NodeKind::kAccelerator, 60'000ms);
          ScopedLock lock(mu);
          ++answered;
        });
      }
    }  // joins every caller
    return answered;
  }

  // Decision spans per key: maui.run_job per job, or grant/reject per dyn.
  static std::map<std::string, int> decided(
      const testing::TraceView& view,
      const std::vector<std::string>& names, const std::string& key) {
    std::map<std::string, int> out;
    for (const auto& name : names) {
      for (const auto* span : view.named(name)) {
        ++out[testing::TraceView::note(*span, key)];
      }
    }
    return out;
  }

  static std::uint64_t served(testing::Scenario& s, MsgType type) {
    const auto snap = s.cluster().metrics_snapshot();
    const auto* rpc = snap.find(torque::as_u32(type));
    return rpc == nullptr ? 0 : rpc->calls;
  }

 private:
  std::atomic<bool> release_{false};  // outlives the scenario's jobs
};

// The lost RUN_JOB goes out again under its own request id on the retry
// backoff: its jobs are never decided again, and they start long before the
// idle poll would have noticed anything.
TEST_P(InFlightTest, DroppedRunJobIsResentAndStartsEachJobOnce) {
  constexpr int kJobs = 3;
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(1);
  add_hold_program(s);
  auto& cluster = s.boot();
  const auto fault = std::make_shared<FaultOne>(MsgType::kRunJob, 1, kDrop);
  cluster.vcluster().fabric().set_fault_injector(fault);

  const auto submitted = simtime::now();
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/0));
  }
  expect_running(s, ids);
  if (virtual_clock()) {
    EXPECT_LT(simtime::now() - submitted,
              s.config().timing.sched_cycle_interval);
  }
  finish(s, ids);

  // More RUN_JOB messages went out than the server executed: the dropped
  // one was resent, not re-decided.
  EXPECT_GT(fault->seen(), static_cast<int>(served(s, MsgType::kRunJob)));
  const auto starts = decided(s.trace(), {"maui.run_job"}, "job");
  EXPECT_EQ(starts.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [job, n] : starts) EXPECT_EQ(n, 1) << "job " << job;
  const auto stats = cluster.scheduler_stats();
  EXPECT_EQ(stats.jobs_started, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.refused, 0u);
}

// The lost DYN_DECIDE is resent, so every dynget gets exactly one decision.
TEST_P(InFlightTest, DroppedDynDecideDecidesEveryDyngetOnce) {
  constexpr int kJobs = 4;
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  add_hold_program(s);
  auto& cluster = s.boot();
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/0));
  }
  expect_running(s, ids);
  const auto fault = std::make_shared<FaultOne>(MsgType::kDynDecide, 1, kDrop);
  cluster.vcluster().fabric().set_fault_injector(fault);

  EXPECT_EQ(dynget_each(s, ids), kJobs);
  finish(s, ids);

  EXPECT_GE(fault->seen(), 2) << "the lost DYN_DECIDE was never resent";
  const auto view = s.trace();
  const auto decisions =
      decided(view, {"maui.grant_dyn", "maui.reject_dyn"}, "dyn");
  EXPECT_EQ(decisions.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [dyn, n] : decisions) EXPECT_EQ(n, 1) << "dyn " << dyn;
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));
  EXPECT_EQ(cluster.scheduler_stats().refused, 0u);
}

// While the first RUN_JOB is held up in the network, more jobs arrive and
// later cycles decide them. Those cycles treat the first job as started on
// its accelerator: they neither start it again nor give its accelerator to
// another job, so the server refuses nothing.
TEST_P(InFlightTest, DelayedRunJobKeepsItsJobAndHosts) {
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(3);
  add_hold_program(s);
  auto& cluster = s.boot();
  const auto fault =
      std::make_shared<FaultOne>(MsgType::kRunJob, 1, kDelay20ms);
  cluster.vcluster().fabric().set_fault_injector(fault);

  std::vector<JobId> ids{s.submit_program("hold", /*nodes=*/1, /*acpn=*/1)};
  ASSERT_TRUE(testing::await([&] { return fault->seen() >= 1; }, 10'000ms,
                             1ms));
  for (int j = 0; j < 2; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/1));
  }
  expect_running(s, ids);

  std::set<std::string> accels;
  {
    auto client = cluster.client();
    for (const auto id : ids) {
      const auto info = client.stat_job(id);
      ASSERT_TRUE(info.has_value());
      ASSERT_EQ(info->accel_hosts.size(), 1u);
      accels.insert(info->accel_hosts.front());
    }
  }
  EXPECT_EQ(accels.size(), ids.size()) << "an accelerator was given twice";
  finish(s, ids);

  const auto view = s.trace();
  const auto starts = decided(view, {"maui.run_job"}, "job");
  EXPECT_EQ(starts.size(), ids.size());
  for (const auto& [job, n] : starts) EXPECT_EQ(n, 1) << "job " << job;
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));
  EXPECT_EQ(cluster.scheduler_stats().refused, 0u);
  // On the virtual clock the later jobs were decided while the first batch
  // was still on its way; RealTime cannot promise that on a loaded host.
  if (!virtual_clock()) return;
  const auto first = std::to_string(ids.front());
  const trace::Span* applied = nullptr;
  for (const auto* span : view.named("serve.run_apply")) {
    if (testing::TraceView::note(*span, "job") == first) applied = span;
  }
  ASSERT_NE(applied, nullptr);
  for (const auto* span : view.named("maui.run_job")) {
    if (testing::TraceView::note(*span, "job") == std::to_string(ids[1])) {
      EXPECT_LT(span->begin_tick, applied->begin_tick);
    }
  }
}

// The serial ablation keeps the paper's head-of-line shape: even with the
// first DYN_DECIDE held up, no second one leaves before it is answered.
TEST_P(InFlightTest, SerialModeWaitsForEachDynDecide) {
  constexpr int kJobs = 4;
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(2);
  s.config().sched_batched_dyn = false;
  add_hold_program(s);
  auto& cluster = s.boot();
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/0));
  }
  expect_running(s, ids);
  const auto fault =
      std::make_shared<FaultOne>(MsgType::kDynDecide, 1, kDelay20ms);
  cluster.vcluster().fabric().set_fault_injector(fault);

  EXPECT_EQ(dynget_each(s, ids), kJobs);
  finish(s, ids);

  const auto view = s.trace();
  std::vector<const trace::Span*> calls;
  for (const auto* span : view.named("rpc.DYN_DECIDE")) {
    if (span->actor == "maui") calls.push_back(span);
  }
  EXPECT_EQ(calls.size(), static_cast<std::size_t>(kJobs));
  std::sort(calls.begin(), calls.end(), [](const auto* a, const auto* b) {
    return a->begin_tick < b->begin_tick;
  });
  for (std::size_t i = 1; i < calls.size(); ++i) {
    EXPECT_TRUE(testing::TraceView::happens_before(*calls[i - 1], *calls[i]))
        << "DYN_DECIDE " << i << " left before " << i - 1 << " was answered";
  }
}

// Each job's evaluation is billed before it can start, whichever cycle
// decides it: with 10 ms per evaluation, the k-th start of a burst comes at
// least k * 10 ms after the burst.
TEST_P(InFlightTest, EveryStartIsBilledItsEvaluation) {
  constexpr int kJobs = 4;
  constexpr double kEval = 0.010;
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(1);
  s.config().timing.sched_job_eval_cost = 10ms;
  add_hold_program(s);
  (void)s.boot();
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/0));
  }
  expect_running(s, ids);
  release_all();
  double burst = 1e300;
  std::vector<double> starts;
  for (const auto id : ids) {
    const auto info = s.wait_job(id, 60'000ms);
    ASSERT_TRUE(info.has_value());
    burst = std::min(burst, info->submit_time);
    starts.push_back(info->start_time);
  }
  std::sort(starts.begin(), starts.end());
  for (int k = 1; k <= kJobs; ++k) {
    EXPECT_GE(starts[k - 1] - burst, k * kEval) << "start " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, InFlightTest, dac::testing::kBothClocks,
                         dac::testing::clock_mode_name);

}  // namespace
}  // namespace dac::maui
