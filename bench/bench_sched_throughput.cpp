// Scheduler-throughput benchmark for the high-throughput scheduling path
// (docs/SCHEDULING.md): a 1,000-node cluster pushes 10,000 jobs — three in
// four issuing a dynamic request mid-flight — through the full TORQUE/Maui
// pipeline on the discrete-event clock, once with batched kDynDecide
// servicing (one message per cycle) and once serial (one kDynDecide per
// decision, each paying the per-request base cost).
// All times are *virtual*: the modeled scheduling costs, not host speed,
// determine the latencies, so results are comparable across machines.
//
//   ./bench_sched_throughput [nodes] [jobs]     (defaults: 1000 10000)
//
// Reports client-observed dynget latency (p50/p99, measured around the
// pbs_dynget round trip inside the job) and scheduler cycles per virtual
// second, and writes BENCH_sched_throughput.json. CI's bench-trend step
// compares it with the committed baseline: it fails on a >20% drop in
// batched cycles/virtual-second, a serial p50 more than 10% off, or a
// serial/batched p99 ratio below 2x. Exits nonzero if any job is lost or any
// dynamic request goes undecided — a bench that loses work measures nothing.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "simtime/clock.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

using namespace dac;

namespace {

constexpr const char* kGetterProgram = "schedbench.getter";

util::Bytes sleep_args(std::uint64_t ms) {
  util::ByteWriter w;
  w.put<std::uint64_t>(ms);
  return std::move(w).take();
}

struct AblationResult {
  std::size_t completed = 0;
  std::size_t dyn_jobs = 0;
  std::size_t dyn_decided = 0;
  std::size_t dyn_granted = 0;
  double dynget_p50_ms = 0.0;
  double dynget_p99_ms = 0.0;
  double virtual_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t cycles = 0;
  double cycles_per_vsec = 0.0;
};

// Shared between the driver and the getter jobs of one ablation run.
struct DynMeter {
  Mutex mu{"bench.dyn_meter"};
  util::Samples wait_s;
  std::size_t decided = 0;
  std::size_t granted = 0;
};

bool run_ablation(bool batched, std::size_t nodes, std::size_t jobs,
                  AblationResult* out) {
  core::DacClusterConfig cfg = core::DacClusterConfig::fast();
  // bigsim's 1:8 CN:AC split (compute front-ends have np=8) and relaxed
  // heartbeat cadence, so heartbeats are not the dominant event stream.
  cfg.compute_nodes = std::max<std::size_t>(1, (nodes - 1) / 9);
  cfg.accel_nodes = nodes - 1 - cfg.compute_nodes;
  cfg.timing.mom_heartbeat_interval = std::chrono::milliseconds(1000);
  cfg.sched_batched_dyn = batched;  // the ablation under test

  DynMeter meter;
  const auto wall0 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)

  core::DacCluster cluster(cfg);
  cluster.register_program(kGetterProgram, [&meter](core::JobContext& ctx) {
    core::interruptible_sleep(ctx, std::chrono::milliseconds(5));
    // Align to a shared 50 ms virtual-time grid so a whole wave's requests
    // reach the server inside one scheduler cycle. Each arrival pushes a
    // wake that starts a cycle, so unaligned requests get serviced one at a
    // time and the batched/serial ablation would measure batches of size
    // one.
    // sleep_until (not interruptible_sleep) for exact, jitter-free ties.
    const auto grid = std::chrono::milliseconds(50);
    const auto since = simtime::now().time_since_epoch();
    simtime::sleep_until(simtime::TimePoint(since - (since % grid) + grid));
    const auto t0 = simtime::now();
    auto grant = ctx.grow_compute(1, 1);
    const double waited = util::to_seconds(simtime::now() - t0);
    {
      ScopedLock lock(meter.mu);
      meter.wait_s.add(waited);
      ++meter.decided;
      if (grant.granted) ++meter.granted;
    }
    // Hold the grant long enough for the MOM_DYN_ADD/DYNJOIN handshake to
    // settle before releasing: a job that exits milliseconds after a grant
    // leaves its mother superior blocked joining a dead process, and that
    // stall is the mom's, not the scheduler's — not what this measures.
    core::interruptible_sleep(ctx, std::chrono::milliseconds(50));
    if (grant.granted) ctx.release_compute(grant.client_id);
  });

  const auto virt0 = simtime::now();

  // Bounded submission waves, same rationale as examples/bigsim.cpp: the
  // Maui cycle is O(queued x nodes) and quiescence detection wants the
  // runnable set small relative to the core count.
  const std::size_t wave = std::min<std::size_t>(cfg.accel_nodes, 16);
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t dyn_jobs = 0;
  while (submitted < jobs) {
    std::vector<torque::JobId> ids;
    const std::size_t batch = std::min(wave, jobs - submitted);
    for (std::size_t i = 0; i < batch; ++i, ++submitted) {
      // Three of every four jobs are dynamic requesters — the storm that
      // batched servicing exists for. The rest are static sleep jobs
      // holding one CN slot and one accelerator, keeping the static path
      // loaded alongside the dynamic one.
      if (submitted % 4 != 3) {
        ids.push_back(cluster.submit_program(kGetterProgram, 1, 0));
        ++dyn_jobs;
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
  }

  const auto virt1 = simtime::now();
  const auto stats = cluster.scheduler_stats();
  cluster.shutdown();
  const auto wall1 = std::chrono::steady_clock::now();  // NOLINT-DACSCHED(raw-clock)

  out->completed = completed;
  out->dyn_jobs = dyn_jobs;
  {
    ScopedLock lock(meter.mu);
    out->dyn_decided = meter.decided;
    out->dyn_granted = meter.granted;
    out->dynget_p50_ms = meter.wait_s.percentile(50.0) * 1e3;
    out->dynget_p99_ms = meter.wait_s.percentile(99.0) * 1e3;
  }
  out->virtual_seconds = util::to_seconds(virt1 - virt0);
  out->wall_seconds = util::to_seconds(wall1 - wall0);
  out->cycles = stats.cycles;
  out->cycles_per_vsec =
      static_cast<double>(stats.cycles) / out->virtual_seconds;

  if (completed != jobs) {
    std::fprintf(stderr, "FAIL(%s): %zu/%zu jobs completed\n",
                 batched ? "batched" : "serial", completed, jobs);
    return false;
  }
  if (out->dyn_decided != dyn_jobs) {
    std::fprintf(stderr, "FAIL(%s): %zu/%zu dynamic requests decided\n",
                 batched ? "batched" : "serial", out->dyn_decided, dyn_jobs);
    return false;
  }
  return true;
}

void print_result(const char* name, const AblationResult& r) {
  std::printf(
      "%-8s: %zu jobs (%zu dyn, %zu granted) | dynget p50 %.2f ms, p99 "
      "%.2f ms | %llu cycles over %.1f virtual s (%.1f cyc/vs) | wall %.1f s\n",
      name, r.completed, r.dyn_jobs, r.dyn_granted, r.dynget_p50_ms,
      r.dynget_p99_ms, static_cast<unsigned long long>(r.cycles),
      r.virtual_seconds, r.cycles_per_vsec, r.wall_seconds);
}

void emit_json(const char* key, const AblationResult& r, std::FILE* out,
               bool trailing_comma) {
  std::fprintf(out,
               "  \"%s\": {\n"
               "    \"completed\": %zu,\n"
               "    \"dyn_jobs\": %zu,\n"
               "    \"dyn_granted\": %zu,\n"
               "    \"dynget_p50_ms\": %.3f,\n"
               "    \"dynget_p99_ms\": %.3f,\n"
               "    \"virtual_seconds\": %.3f,\n"
               "    \"wall_seconds\": %.3f,\n"
               "    \"cycles\": %llu,\n"
               "    \"cycles_per_vsec\": %.1f\n"
               "  }%s\n",
               key, r.completed, r.dyn_jobs, r.dyn_granted, r.dynget_p50_ms,
               r.dynget_p99_ms, r.virtual_seconds, r.wall_seconds,
               static_cast<unsigned long long>(r.cycles), r.cycles_per_vsec,
               trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  // Virtual time is the whole point: force DiscreteEvent regardless of
  // DACSCHED_CLOCK, exactly like examples/bigsim.cpp.
  simtime::Clock::instance().set_mode(simtime::Mode::kDiscreteEvent);

  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1000;
  const std::size_t jobs =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 10000;

  std::printf("bench_sched_throughput: %zu nodes, %zu jobs per ablation\n",
              nodes, jobs);

  AblationResult batched;
  if (!run_ablation(/*batched=*/true, nodes, jobs, &batched)) return 1;
  print_result("batched", batched);

  AblationResult serial;
  if (!run_ablation(/*batched=*/false, nodes, jobs, &serial)) return 1;
  print_result("serial", serial);

  const double p99_improvement =
      batched.dynget_p99_ms > 0.0 ? serial.dynget_p99_ms / batched.dynget_p99_ms
                                  : 0.0;
  std::printf("dynget p99 improvement (serial/batched): %.2fx\n",
              p99_improvement);

  std::FILE* out = std::fopen("BENCH_sched_throughput.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"nodes\": %zu,\n  \"jobs\": %zu,\n", nodes, jobs);
    emit_json("batched", batched, out, /*trailing_comma=*/true);
    emit_json("serial", serial, out, /*trailing_comma=*/true);
    std::fprintf(out, "  \"dynget_p99_improvement\": %.2f\n}\n",
                 p99_improvement);
    std::fclose(out);
  }
  return 0;
}
