// bigsim: the discrete-event clock's headline act. Boots a 1,000-node
// virtual cluster (1 head + compute front-ends + network-attached
// accelerators), pushes 10,000 jobs — static allocations plus dynget
// growers — through the full TORQUE/Maui pipeline in virtual time, and
// reports virtual-vs-wall speedup and peak memory to BENCH_sim_scale.json.
//
//   ./bigsim [nodes] [jobs]      (defaults: 1000 10000; --help for usage)
//
// The whole point is that minutes of simulated cluster time cost seconds of
// wall time: the clock only moves when every daemon thread is parked, so a
// 250 ms heartbeat interval across 1,000 moms costs exactly as many wall
// microseconds as the wakeups themselves need.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "simtime/clock.hpp"
#include "util/clock.hpp"

using namespace dac;

namespace {

constexpr const char* kGrowerProgram = "bigsim.grower";

// Three nodes is the smallest cluster that runs a job: the head, one
// compute front-end and one accelerator.
constexpr const char* kUsage =
    "usage: bigsim [nodes] [jobs]\n"
    "  nodes  cluster size including the head node, >= 3 (default 1000)\n"
    "  jobs   jobs to push through the cluster, >= 1 (default 10000)\n";

// The decimal count `arg` spells out in full, or nullopt.
std::optional<std::size_t> parse_count(const char* arg) {
  std::size_t value = 0;
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

// A malleable job: runs briefly, asks the scheduler for one more compute
// node mid-flight (rejections are a normal outcome at this load), and
// releases the grant before finishing.
void grower(core::JobContext& ctx) {
  core::interruptible_sleep(ctx, std::chrono::milliseconds(5));
  auto grant = ctx.grow_compute(1, 1);
  core::interruptible_sleep(ctx, std::chrono::milliseconds(5));
  if (grant.granted) ctx.release_compute(grant.client_id);
}

util::Bytes sleep_args(std::uint64_t ms) {
  util::ByteWriter w;
  w.put<std::uint64_t>(ms);
  return std::move(w).take();
}

// The process's peak resident set so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Boots the cluster, runs the jobs, writes BENCH_sim_scale.json; the exit
// status.
int run(std::size_t nodes, std::size_t jobs) {
  // This example IS the virtual-time showcase: force DiscreteEvent no
  // matter what DACSCHED_CLOCK says.
  simtime::Clock::instance().set_mode(simtime::Mode::kDiscreteEvent);

  core::DacClusterConfig cfg = core::DacClusterConfig::fast();
  // Split the non-head nodes 1:8 between compute front-ends (np=8 each) and
  // accelerators, so CN slots match the accelerator count and every job
  // (1 CN slot + 1 AC) can run as soon as an AC frees up.
  cfg.compute_nodes = std::max<std::size_t>(1, (nodes - 1) / 9);
  cfg.accel_nodes = nodes - 1 - cfg.compute_nodes;
  // 1,000 moms at the test-profile 25 ms cadence would make heartbeats the
  // dominant event stream; a real deployment at this scale would not
  // heartbeat that hard either.
  cfg.timing.mom_heartbeat_interval = std::chrono::milliseconds(1000);

  std::printf("bigsim: booting %zu nodes (%zu CN + %zu AC + head)...\n",
              nodes, cfg.compute_nodes, cfg.accel_nodes);

  const auto wall0 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
  const auto stats0 = simtime::Clock::instance().stats();

  core::DacCluster cluster(cfg);
  cluster.register_program(kGrowerProgram, grower);

  const auto virt0 = simtime::now();
  const auto boot_wall = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
  std::printf("bigsim: booted in %.1f s wall; submitting %zu jobs...\n",
              util::to_seconds(boot_wall - wall0), jobs);

  // Submit in bounded waves: the Maui cycle is O(queued x nodes), so an
  // unbounded queue would melt real CPU without telling us anything about
  // the clock — and quiescence detection wants the set of simultaneously
  // runnable threads small relative to the machine's cores, so waves much
  // wider than the core count just pile up herd-scheduling latency (on a
  // 1-core CI box, wave 888 -> 64 -> 16 measured 132 s -> 3.6 s -> 2.4 s
  // for the same 1,000 jobs).
  const std::size_t wave = std::min<std::size_t>(cfg.accel_nodes, 16);
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t growers = 0;
  while (submitted < jobs) {
    std::vector<torque::JobId> ids;
    const std::size_t batch = std::min(wave, jobs - submitted);
    for (std::size_t i = 0; i < batch; ++i, ++submitted) {
      if (submitted % 10 == 9) {
        ids.push_back(cluster.submit_program(kGrowerProgram, 1, 1));
        ++growers;
      } else {
        ids.push_back(cluster.submit_program(core::kSleepProgram, 1, 1,
                                             sleep_args(10)));
      }
    }
    for (const auto id : ids) {
      if (cluster.wait_job(id, std::chrono::milliseconds(300'000))) {
        ++completed;
      }
    }
    std::printf("bigsim: %zu/%zu jobs done (virtual %.2f s)\n", completed,
                jobs, util::to_seconds(simtime::now() - virt0));
  }

  const auto virt1 = simtime::now();
  cluster.shutdown();

  const auto wall1 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)
  const auto stats1 = simtime::Clock::instance().stats();

  const double virtual_seconds = util::to_seconds(virt1 - virt0);
  const double wall_seconds = util::to_seconds(wall1 - wall0);
  const auto events = stats1.waiters_fired - stats0.waiters_fired;
  const auto advances = stats1.advances - stats0.advances;
  const double rss_mb = peak_rss_mb();

  // A partial run must not leave a fresh-looking benchmark artifact behind:
  // fail before touching BENCH_sim_scale.json, not after.
  if (completed != jobs) {
    std::fprintf(stderr, "bigsim: FAILED — %zu/%zu jobs completed\n", completed,
                 jobs);
    return 1;
  }

  std::FILE* out = std::fopen("BENCH_sim_scale.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"nodes\": %zu,\n"
                 "  \"jobs\": %zu,\n"
                 "  \"completed\": %zu,\n"
                 "  \"dynget_jobs\": %zu,\n"
                 "  \"virtual_seconds\": %.3f,\n"
                 "  \"wall_seconds\": %.3f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"advances\": %llu,\n"
                 "  \"events\": %llu,\n"
                 "  \"events_per_sec\": %.0f,\n"
                 "  \"peak_rss_mb\": %.1f\n"
                 "}\n",
                 nodes, jobs, completed, growers, virtual_seconds,
                 wall_seconds, virtual_seconds / wall_seconds,
                 static_cast<unsigned long long>(advances),
                 static_cast<unsigned long long>(events),
                 static_cast<double>(events) / wall_seconds, rss_mb);
    std::fclose(out);
  }

  std::printf(
      "bigsim: %zu/%zu jobs (%zu dynget) | virtual %.2f s, wall %.2f s "
      "(%.1fx) | %llu events (%.0f/s) | peak RSS %.1f MB\n",
      completed, jobs, growers, virtual_seconds, wall_seconds,
      virtual_seconds / wall_seconds,
      static_cast<unsigned long long>(events),
      static_cast<double>(events) / wall_seconds, rss_mb);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::string_view(argv[1]) == "--help" ||
                   std::string_view(argv[1]) == "-h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto nodes = argc > 1 ? parse_count(argv[1]) : 1000;
  const auto jobs = argc > 2 ? parse_count(argv[2]) : 10000;
  if (argc > 3 || !nodes || *nodes < 3 || !jobs || *jobs < 1) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  return run(*nodes, *jobs);
}

