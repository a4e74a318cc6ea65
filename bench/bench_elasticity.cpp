// Elasticity at scale: what scheduler-initiated reclaim buys on a 1,000-node
// virtual cluster (ROADMAP item 5's perf trajectory, first installment).
//
// Setup: a 1,000-node cluster (1 head + compute front-ends + a 64-deep
// network-attached accelerator pool, the scarce resource). Hog jobs grab
// the whole AC pool and sit on it idle — the paper's motivating waste (§I).
// A stream of requester jobs then each wants one accelerator for a short
// burst of real work. Two runs:
//
//   without elasticity  no policy installed: every starved dynget is
//                       rejected, the pool stays hoarded, useful
//                       utilization ~0;
//   with elasticity     ShrinkUnderPressure negotiates hog sets back one
//                       offer at a time; starved dyngets defer, get served
//                       from reclaimed capacity, and freed slots recycle to
//                       the rest of the stream.
//
// Reported to BENCH_elasticity.json: requester-observed grant latency
// p50/p99 (the reclaim path IS the slow tail), grant counts, and the
// useful-work share of the accelerator pool for both runs. Runs on the
// DiscreteEvent clock, so the 1k-node cluster costs seconds of wall time.
//
//   ./bench_elasticity [nodes] [requesters]   (defaults: 1000 256)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "elastic/agent.hpp"
#include "elastic/policy.hpp"
#include "simtime/clock.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

using namespace dac;
using namespace std::chrono_literals;

namespace {

constexpr int kHogs = 16;
constexpr auto kWorkBurst = std::chrono::milliseconds(10);

struct RunResult {
  std::size_t requesters = 0;
  std::size_t granted = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double useful_ac_seconds = 0.0;
  double phase_seconds = 0.0;  // virtual time, submit -> last completion
  double pool_utilization = 0.0;
};

RunResult run(bool elastic_on, std::size_t nodes, std::size_t requesters) {
  core::DacClusterConfig cfg = core::DacClusterConfig::fast();
  // The paper's setting: accelerators are the scarce, contended resource.
  // Cap the AC pool at 64 and make the rest compute front-ends — idle moms
  // cost nothing in virtual time, but every *held* AC runs a live acd
  // daemon, so a fully-hoarded 900-AC pool would be a thread benchmark,
  // not a scheduling one.
  cfg.accel_nodes = std::min<std::size_t>(64, std::max<std::size_t>(
                                                  kHogs, (nodes - 1) / 2));
  cfg.compute_nodes = nodes - 1 - cfg.accel_nodes;
  // 1,000 moms at the 25 ms test cadence would drown the event stream.
  cfg.timing.mom_heartbeat_interval = std::chrono::milliseconds(1000);
  if (elastic_on) {
    cfg.elastic_policy = std::make_shared<elastic::ShrinkUnderPressurePolicy>();
  }
  core::DacCluster cluster(cfg);

  std::atomic<bool> done{false};
  Mutex mu{"bench.elasticity"};
  util::Samples latency_ms;
  double useful_ac_seconds = 0.0;

  // Hog: grabs its share of the pool and idles on it. With elasticity it
  // registers shrinkable and hands sets back as the server reclaims them;
  // without, it holds everything until the stream is over.
  cluster.register_program("hog", [&](core::JobContext& ctx) {
    util::ByteReader r(ctx.info().program_args);
    const auto sets = r.get<std::int32_t>();
    auto& ses = ctx.session();
    (void)ses.ac_init();
    std::vector<std::uint64_t> held;
    for (std::int32_t i = 0; i < sets; ++i) {
      auto got = ses.ac_get(1);
      if (got.granted) held.push_back(got.client_id);
    }
    if (elastic_on) {
      auto ecfg = ctx.elastic_config();
      ecfg.accept_shrink = true;
      elastic::ElasticAgent agent(ctx.mpi().process(), ecfg);
      agent.on_shrink([&](const elastic::Reconfig& rc) {
        ses.ac_detach(rc.client_id);
        if (!held.empty() && held.back() == rc.client_id) held.pop_back();
      });
      agent.announce();
      while (!done.load()) (void)agent.service(5ms);
      const auto grace = simtime::now() + 200ms;
      while (simtime::now() < grace) (void)agent.service(5ms);
      agent.stop();
    } else {
      while (!done.load()) core::interruptible_sleep(ctx, 25ms);
    }
    while (!held.empty()) {
      ses.ac_free(held.back());
      held.pop_back();
    }
    ses.ac_finalize();
  });

  // Requester: one accelerator for one short burst of work. Its observed
  // grant latency is the reclaim latency when the pool is hoarded.
  cluster.register_program("requester", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    const auto t0 = simtime::now();
    auto got = ses.ac_get(1);
    if (got.granted) {
      const double waited_ms =
          std::chrono::duration<double, std::milli>(simtime::now() - t0)
              .count();
      core::interruptible_sleep(ctx, kWorkBurst);  // the useful work
      ses.ac_free(got.client_id);
      ScopedLock lock(mu);
      latency_ms.add(waited_ms);
      useful_ac_seconds +=
          std::chrono::duration<double>(kWorkBurst).count();
    }
    ses.ac_finalize();
  });

  // Hogs cover the pool exactly — any slot left free would serve requests
  // without pressure and hide the negotiation path.
  const auto pool = static_cast<std::int32_t>(cfg.accel_nodes);
  std::vector<torque::JobId> hog_ids;
  for (int i = 0; i < kHogs; ++i) {
    const std::int32_t share =
        pool / kHogs + (i < pool % kHogs ? 1 : 0);
    util::ByteWriter w;
    w.put<std::int32_t>(share);
    hog_ids.push_back(
        cluster.submit_program("hog", 1, 0, std::move(w).take()));
  }
  // Wait until the pool is fully hoarded before opening the stream.
  while (true) {
    int used = 0;
    for (const auto& n : cluster.client().stat_nodes()) {
      if (n.kind == torque::NodeKind::kAccelerator) used += n.used;
    }
    if (used >= pool) break;
    simtime::sleep_for(25ms);
  }

  const auto phase0 = simtime::now();
  const std::size_t wave = 16;
  std::size_t submitted = 0;
  while (submitted < requesters) {
    std::vector<torque::JobId> ids;
    const std::size_t batch = std::min(wave, requesters - submitted);
    for (std::size_t i = 0; i < batch; ++i, ++submitted) {
      ids.push_back(cluster.submit_program("requester", 1, 0));
    }
    for (const auto id : ids) {
      if (!cluster.wait_job(id, std::chrono::milliseconds(120'000))) {
        std::fprintf(stderr, "requester did not complete\n");
        std::exit(1);
      }
    }
  }
  const auto phase1 = simtime::now();
  done = true;
  for (const auto id : hog_ids) {
    if (!cluster.wait_job(id, std::chrono::milliseconds(120'000))) {
      std::fprintf(stderr, "hog did not complete\n");
      std::exit(1);
    }
  }

  RunResult res;
  res.requesters = requesters;
  res.phase_seconds = util::to_seconds(phase1 - phase0);
  {
    ScopedLock lock(mu);
    res.granted = latency_ms.count();
    res.useful_ac_seconds = useful_ac_seconds;
    if (latency_ms.count() > 0) {
      res.latency_p50_ms = latency_ms.percentile(50.0);
      res.latency_p99_ms = latency_ms.percentile(99.0);
    }
  }
  res.pool_utilization =
      res.phase_seconds > 0.0
          ? res.useful_ac_seconds /
                (static_cast<double>(cfg.accel_nodes) * res.phase_seconds)
          : 0.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  // 1k nodes is only affordable in virtual time: force DiscreteEvent.
  simtime::Clock::instance().set_mode(simtime::Mode::kDiscreteEvent);

  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1000;
  const std::size_t requesters =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 256;

  std::printf("bench_elasticity: %zu nodes, %d hogs hoarding the pool, "
              "%zu requesters\n",
              nodes, kHogs, requesters);

  const auto wall0 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
  const RunResult off = run(/*elastic_on=*/false, nodes, requesters);
  const RunResult on = run(/*elastic_on=*/true, nodes, requesters);
  const auto wall1 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)

  std::FILE* out = std::fopen("BENCH_elasticity.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"nodes\": %zu,\n"
        "  \"requesters\": %zu,\n"
        "  \"without_elasticity\": {\n"
        "    \"granted\": %zu,\n"
        "    \"pool_utilization\": %.6f,\n"
        "    \"phase_seconds\": %.3f\n"
        "  },\n"
        "  \"with_elasticity\": {\n"
        "    \"granted\": %zu,\n"
        "    \"reclaim_latency_p50_ms\": %.3f,\n"
        "    \"reclaim_latency_p99_ms\": %.3f,\n"
        "    \"pool_utilization\": %.6f,\n"
        "    \"phase_seconds\": %.3f\n"
        "  },\n"
        "  \"wall_seconds\": %.3f\n"
        "}\n",
        nodes, requesters, off.granted, off.pool_utilization,
        off.phase_seconds, on.granted, on.latency_p50_ms, on.latency_p99_ms,
        on.pool_utilization, on.phase_seconds,
        util::to_seconds(wall1 - wall0));
    std::fclose(out);
  }

  std::printf(
      "without elasticity: %zu/%zu granted, useful utilization %.4f\n"
      "with elasticity:    %zu/%zu granted, useful utilization %.4f, "
      "reclaim latency p50 %.1f ms / p99 %.1f ms\n",
      off.granted, off.requesters, off.pool_utilization, on.granted,
      on.requesters, on.pool_utilization, on.latency_p50_ms,
      on.latency_p99_ms);
  // The bench's own acceptance: elasticity must actually serve the starved
  // stream the baseline rejects.
  return on.granted == requesters && on.granted > off.granted ? 0 : 1;
}
