// Scheduler stress suite (ctest label: sched): concurrent dynget storms
// against the full server/scheduler pair on the discrete-event clock,
// checking the invariants the high-throughput path must preserve
// (docs/SCHEDULING.md):
//   - every caller gets a decision (starvation bound: bounded p99 wait),
//   - no slot is ever double-granted (trace replay over alloc events),
//   - slot conservation: every grant is matched by a release and the node
//     table drains to zero used slots,
// and that the batched/serial and delta/full-fetch ablations all uphold
// them — the decision *logic* and the wire protocol are shared, only the
// batch sizes, fetch volume and modeled costs differ.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "simtime/clock.hpp"
#include "torque/ifl.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace dac::maui {
namespace {

using namespace std::chrono_literals;

struct StormSpec {
  int jobs = 4;
  int callers_per_job = 4;  // concurrent dynget threads per job
  int rounds = 1;           // dynget/dynfree rounds per thread
  std::size_t compute = 2;
  std::size_t accel = 4;
  bool batched = true;
  int full_rescan_every = 16;
};

struct StormStats {
  int expected = 0;
  int decided = 0;
  int granted = 0;
  util::Samples wait_s;  // per-call decision latency, virtual seconds
  std::uint64_t sched_decisions = 0;  // scheduler-side grants + rejects
  std::uint64_t dyn_decide_calls = 0;  // DYN_DECIDE messages served
  // Served message types with no protocol name (e.g. a second decision
  // message that crept back in).
  std::vector<std::string> unnamed_rpcs;
};

// Boots a cluster, parks `jobs` holder jobs in kRunning, then fires
// jobs*callers_per_job concurrent dynget callers at the server. Callers are
// plain IFL clients (one per thread, the per-job serialization happens
// server-side), so the storm measures the batch system, not MPI spawns.
void run_storm(const StormSpec& spec, StormStats* out) {
  std::atomic<bool> release{false};  // outlives the scenario
  testing::Scenario s;
  s.compute_nodes(spec.compute).accel_nodes(spec.accel);
  s.clock_mode(simtime::Mode::kDiscreteEvent);
  s.config().sched_batched_dyn = spec.batched;
  s.config().sched_full_rescan_every = spec.full_rescan_every;
  s.program("hold", [&release](core::JobContext&) {
    (void)testing::await([&release] { return release.load(); }, 120'000ms);
  });
  auto& cluster = s.boot();

  std::vector<torque::JobId> ids;
  for (int j = 0; j < spec.jobs; ++j) {
    ids.push_back(s.submit_program("hold", /*nodes=*/1, /*acpn=*/0));
  }
  {
    auto client = cluster.client();
    for (const auto id : ids) {
      const auto info =
          client.wait_for_state(id, torque::JobState::kRunning, 60'000ms);
      ASSERT_TRUE(info.has_value() &&
                  info->state == torque::JobState::kRunning)
          << "holder job " << id << " never started";
    }
  }

  const int callers = spec.jobs * spec.callers_per_job;
  out->expected = callers * spec.rounds;
  // One IFL client per caller, created up front so endpoint setup does not
  // race the thread spawns.
  std::vector<std::unique_ptr<torque::Ifl>> clients;
  clients.reserve(callers);
  for (int c = 0; c < callers; ++c) {
    clients.push_back(std::make_unique<torque::Ifl>(
        cluster.head(), cluster.server_address()));
  }

  Mutex stats_mu{"test.storm_stats"};
  {
    std::vector<simtime::ActorThread> threads;
    threads.reserve(callers);
    for (int c = 0; c < callers; ++c) {
      torque::Ifl* ifl = clients[static_cast<std::size_t>(c)].get();
      const auto job = ids[static_cast<std::size_t>(c % spec.jobs)];
      threads.emplace_back([&, ifl, job] {
        for (int r = 0; r < spec.rounds; ++r) {
          const auto t0 = simtime::now();
          const auto reply = ifl->dynget(job, /*count=*/1, /*min_count=*/1,
                                         torque::NodeKind::kAccelerator,
                                         60'000ms);
          const double waited = util::to_seconds(simtime::now() - t0);
          {
            ScopedLock lock(stats_mu);
            ++out->decided;
            out->wait_s.add(waited);
            if (reply.granted) ++out->granted;
          }
          if (reply.granted) ifl->dynfree(job, reply.client_id);
        }
      });
    }
  }  // joins every caller

  release.store(true);
  for (const auto id : ids) {
    ASSERT_TRUE(s.wait_job(id, 60'000ms).has_value())
        << "holder job " << id << " did not finish";
  }
  for (const auto id : ids) ASSERT_NE(s.await_job_trace(id), 0u);

  // No double-grant anywhere in the storm, and conservation: the node table
  // agrees every grant was returned.
  const auto view = s.trace();
  EXPECT_TRUE(view.no_allocation_overlap(s.capacities()));
  EXPECT_EQ(view.named("alloc.assign").size(),
            view.named("alloc.release").size());
  for (const auto& n : cluster.client().stat_nodes()) {
    EXPECT_EQ(n.used, 0) << n.hostname << " leaked slots";
  }

  const auto sched = cluster.scheduler_stats();
  out->sched_decisions = sched.dyn_granted + sched.dyn_rejected;
  const auto metrics = cluster.metrics_snapshot();
  const auto* decide =
      metrics.find(torque::as_u32(torque::MsgType::kDynDecide));
  if (decide != nullptr) out->dyn_decide_calls = decide->calls;
  for (const auto& r : metrics.rpcs) {
    if (r.name.starts_with("0x")) out->unnamed_rpcs.push_back(r.name);
  }
}

// The headline storm: 256 concurrent dynget callers (16 jobs x 16 threads)
// against an 8-slot accelerator pool. Every caller must be decided — grants
// and rejections are both legal, hangs and starvation are not.
TEST(SchedStorm, Storm256CallersBoundedWait) {
  StormSpec spec;
  spec.jobs = 16;
  spec.callers_per_job = 16;
  spec.rounds = 1;
  spec.compute = 2;  // 16 CN slots, one per holder job
  spec.accel = 8;
  StormStats stats;
  run_storm(spec, &stats);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(stats.decided, stats.expected);
  EXPECT_GT(stats.granted, 0) << "an 8-slot pool must grant something";
  // Starvation bound, in virtual seconds: 16 requests serialized per job,
  // each decided within a handful of scheduler cycles. 30 s of virtual time
  // is an order of magnitude of slack over the modeled costs.
  EXPECT_LT(stats.wait_s.percentile(99.0), 30.0)
      << "p99 dynget wait blew the starvation bound";
  EXPECT_LT(stats.wait_s.percentile(50.0), 10.0);
}

// Batched and serial servicing must uphold the same invariants and decide
// the same number of requests — the batch is a transport change, not a
// policy change. Both ship every decision in DYN_DECIDE: serial as batches
// of one, batched as fewer, larger batches.
TEST(SchedStorm, BatchedAndSerialBothConserve) {
  for (const bool batched : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "batched=" << batched);
    StormSpec spec;
    spec.jobs = 4;
    spec.callers_per_job = 4;
    spec.rounds = 2;
    spec.accel = 4;
    spec.batched = batched;
    StormStats stats;
    run_storm(spec, &stats);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(stats.decided, stats.expected);
    EXPECT_GT(stats.granted, 0);
    EXPECT_EQ(stats.sched_decisions,
              static_cast<std::uint64_t>(stats.expected));
    if (batched) {
      EXPECT_GT(stats.dyn_decide_calls, 0u);
      EXPECT_LT(stats.dyn_decide_calls, stats.sched_decisions);
    } else {
      EXPECT_EQ(stats.dyn_decide_calls, stats.sched_decisions);
    }
    EXPECT_TRUE(stats.unnamed_rpcs.empty())
        << "unexpected message type " << stats.unnamed_rpcs.front();
  }
}

// Same for the fetch path: deltas with the default rescan cadence and a
// forced full fetch every cycle feed the same decision logic (the
// mirror-level contract is pinned by sched_equivalence_test.cpp; this is the
// end-to-end spot check).
TEST(SchedStorm, IncrementalAndFullFetchBothConserve) {
  for (const int full_rescan_every : {16, 1}) {
    SCOPED_TRACE(::testing::Message()
                 << "full_rescan_every=" << full_rescan_every);
    StormSpec spec;
    spec.jobs = 4;
    spec.callers_per_job = 4;
    spec.rounds = 2;
    spec.accel = 4;
    spec.full_rescan_every = full_rescan_every;
    StormStats stats;
    run_storm(spec, &stats);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(stats.decided, stats.expected);
    EXPECT_GT(stats.granted, 0);
  }
}

}  // namespace
}  // namespace dac::maui
