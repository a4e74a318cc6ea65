// Pressure-driven shrink demo (the scenario family ROADMAP item 3 opens
// up): a hog job grabs every accelerator in the pool and a second job's
// dynget starves behind it. With the ShrinkUnderPressure policy installed,
// Maui notices the backed-up dynqueue, negotiates the hog's newest set back
// through the three-phase elastic protocol (offer -> ack -> reconfigure),
// and re-grants the reclaimed capacity to the starved request — no job is
// killed, no slot leaks.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "elastic/agent.hpp"
#include "elastic/policy.hpp"
#include "simtime/clock.hpp"

using namespace dac;
using namespace std::chrono_literals;

int main() {
  auto config = core::DacClusterConfig::paper_testbed(2, 2);
  // Shrink as soon as one dynget is queued and cannot be served from free
  // capacity.
  config.elastic_policy = std::make_shared<elastic::ShrinkUnderPressurePolicy>();
  core::DacCluster cluster(config);

  std::atomic<bool> hog_ready{false};
  std::atomic<bool> done{false};
  std::atomic<bool> requester_granted{false};

  // The hog: takes the whole accelerator pool, then declares itself
  // shrinkable. Reclaims arrive through the agent's apply callback on the
  // application thread — the job stays in control of *when* it lets go.
  cluster.register_program("hog", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    std::vector<std::uint64_t> held;
    for (int i = 0; i < 2; ++i) {
      auto got = ses.ac_get(1);
      if (got.granted) held.push_back(got.client_id);
    }
    std::printf("[hog] holding %zu accelerator set(s) — the whole pool\n",
                held.size());

    auto cfg = ctx.elastic_config();
    cfg.accept_shrink = true;
    elastic::ElasticAgent agent(ctx.mpi().process(), cfg);
    agent.on_shrink([&](const elastic::Reconfig& r) {
      std::printf("[hog] scheduler reclaimed set %llu (%zu host(s))\n",
                  static_cast<unsigned long long>(r.client_id),
                  r.hosts.size());
      ses.ac_detach(r.client_id);
      if (!held.empty() && held.back() == r.client_id) held.pop_back();
    });
    agent.announce();
    hog_ready = true;

    while (!done.load()) (void)agent.service(5ms);
    // Grace drain: apply a reconfigure committed just before `done`.
    const auto grace = simtime::now() + 200ms;
    while (simtime::now() < grace) (void)agent.service(5ms);
    agent.stop();

    std::printf("[hog] finishing with %zu set(s) left\n", held.size());
    while (!held.empty()) {
      ses.ac_free(held.back());
      held.pop_back();
    }
    ses.ac_finalize();
  });

  // The starved requester: an ordinary dynget, oblivious to the
  // negotiation happening on its behalf.
  cluster.register_program("requester", [&](core::JobContext& ctx) {
    auto& ses = ctx.session();
    (void)ses.ac_init();
    std::printf("[requester] asking for 1 accelerator (pool is full)\n");
    auto got = ses.ac_get(1);
    if (got.granted) {
      std::printf("[requester] granted — served from the reclaimed set\n");
      requester_granted = true;
      ses.ac_free(got.client_id);
    } else {
      std::printf("[requester] rejected\n");
    }
    ses.ac_finalize();
  });

  const auto hog_id = cluster.submit_program("hog", /*nodes=*/1, /*acpn=*/0);
  while (!hog_ready.load()) simtime::sleep_for(5ms);
  const auto req_id =
      cluster.submit_program("requester", /*nodes=*/1, /*acpn=*/0);
  if (!cluster.wait_job(req_id)) {
    std::fprintf(stderr, "requester did not complete\n");
    return 1;
  }
  done = true;
  if (!cluster.wait_job(hog_id)) {
    std::fprintf(stderr, "hog did not complete\n");
    return 1;
  }

  int used = 0;
  for (const auto& n : cluster.client().stat_nodes()) used += n.used;
  std::printf("done: requester %s; %d slot(s) still in use (expected 0)\n",
              requester_granted.load() ? "granted" : "starved", used);
  return (requester_granted.load() && used == 0) ? 0 : 1;
}
