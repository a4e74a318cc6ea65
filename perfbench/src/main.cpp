// perfbench: the repo benchmark. Boots a ~100-node DAC cluster (1 head,
// 11 compute nodes, 88 accelerators) on the DiscreteEvent clock, runs one
// named workload against it for a fixed wall-clock budget, checks the
// outputs, and prints every metric by name with its unit. The last line of
// stdout is one JSON object: end-to-end metrics from an untraced run
// (--trace 0) or per-layer metrics from a traced run (--trace 1).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// perfbench/README.md lists the metrics, the layer each one belongs to and
// the workload on which each should move.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "probe.hpp"
#include "simtime/clock.hpp"
#include "torque/protocol.hpp"
#include "trace/export.hpp"
#include "workloads.hpp"

namespace core = dac::core;
namespace torque = dac::torque;
using dac::util::Samples;
using perfbench::Probe;
using perfbench::Stamp;

namespace {

// Boots per run; setup_s is their median.
constexpr int kBoots = 9;
// Warm-up jobs run on the booted cluster before the timed phase.
constexpr std::size_t kWarmupJobs = 48;
// peak_rss_mb covers setup, warm-up and this many timed jobs: the server and
// the benchmark keep per-job records, so memory at the end of a run grows
// with how many jobs a run gets through, i.e. with engine speed.
constexpr std::size_t kRssJobs = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

bool parse(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = v;
      have_workload = true;
      continue;
    }
    if (arg == "--trace-file") {
      o->trace_file = v;
      continue;
    }
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(x) || x < 0.0) return false;
    if (arg == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      if (x <= 0.0) return false;
      o->seconds = x;
    } else if (arg == "--trace") {
      o->trace = x != 0.0;
    } else {
      return false;
    }
  }
  return have_workload;
}

core::DacClusterConfig cluster_config() {
  auto cfg = core::DacClusterConfig::fast();
  // bigsim's split of 99 worker nodes: 1 compute front-end (np=8) per 8
  // accelerators.
  cfg.compute_nodes = 11;
  cfg.accel_nodes = 88;
  // bigsim's heartbeat cadence; at the test profile's 25 ms, heartbeats of
  // 99 moms would be most of the event stream.
  cfg.timing.mom_heartbeat_interval = std::chrono::milliseconds(1000);
  // Jobs touch 8 KiB per accelerator; the default 64 MiB arena per device
  // would make the run's memory mostly untouched device buffers.
  cfg.device.memory_bytes = 1u << 20;
  return cfg;
}

// Public counters of every layer, read at a phase boundary.
struct Counters {
  Stamp at;
  dac::simtime::ClockStats clock;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  dac::maui::SchedulerStatsSnapshot sched;
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_errors = 0;
  std::uint64_t dynget_calls = 0;  // pbs_dynget requests the server served
  std::uint64_t kernels = 0;
  std::uint64_t bytes_copied = 0;
  std::size_t device_bytes_in_use = 0;
};

Counters read_counters(core::DacCluster& c, const Probe& probe) {
  Counters k;
  k.at = probe.now();
  k.clock = dac::simtime::Clock::instance().stats();
  auto& fabric = c.vcluster().fabric();
  k.msgs = fabric.messages_delivered();
  k.bytes = fabric.bytes_sent();
  k.drops = fabric.messages_dropped_closed() +
            fabric.messages_dropped_injected();
  k.sched = c.scheduler_stats();
  const auto snap = c.metrics_snapshot();
  k.rpc_calls = snap.total_calls();
  for (const auto& r : snap.rpcs) k.rpc_errors += r.errors;
  if (const auto* s =
          snap.find(static_cast<std::uint32_t>(torque::MsgType::kDynGet))) {
    k.dynget_calls = s->calls;
  }
  for (std::size_t i = 0; i < c.config().accel_nodes; ++i) {
    const auto st = c.devices().device_for(c.accel_node(i).id()).stats();
    k.kernels += st.kernels_launched;
    k.bytes_copied += st.bytes_copied_in + st.bytes_copied_out;
    k.device_bytes_in_use += st.bytes_in_use;
  }
  return k;
}

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  bool applicable = true;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back(Metric{name, value, unit, note, true});
  }
  void not_applicable(const std::string& name, const std::string& unit,
                      const std::string& why) {
    rows_.push_back(Metric{name, 0.0, unit, why, false});
  }
  void section(const std::string& title) {
    rows_.push_back(Metric{"", 0.0, "", title, false});
  }

  // p50 and the highest percentile with ten samples beyond it (p99 from
  // 1,000 samples on), with the sample count.
  void timing(const std::string& base, const Samples& s,
              const std::string& unit = "ms") {
    if (s.count() == 0) {
      not_applicable(base + "_p50_" + unit, unit, "no samples");
      not_applicable(base + "_p99_" + unit, unit, "no samples");
      return;
    }
    const double tail = tail_percentile(s.count());
    char note[64];
    std::snprintf(note, sizeof note, "n=%zu", s.count());
    add(base + "_p50_" + unit, s.percentile(50.0), unit, note);
    std::snprintf(note, sizeof note, "n=%zu, p%.1f", s.count(), tail);
    add(base + "_p99_" + unit, s.percentile(tail), unit, note);
  }

  static double tail_percentile(std::size_t n) {
    if (n >= 1000) return 99.0;
    if (n <= 10) return 100.0;
    return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const auto& m : rows_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  void print() const {
    for (const auto& m : rows_) {
      if (m.name.empty()) {
        std::printf("\n[%s]\n", m.note.c_str());
      } else if (!m.applicable) {
        std::printf("  %-34s %14s %-6s  (%s)\n", m.name.c_str(), "n/a",
                    m.unit.c_str(), m.note.c_str());
      } else {
        std::printf("  %-34s %14.4f %-6s%s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.empty() ? "" : "  (",
                    m.note.c_str(), m.note.empty() ? "" : ")");
      }
    }
  }

 private:
  std::vector<Metric> rows_;
};

// Names printed in the result line; every workload measures all of them.
const std::vector<std::string> kEndToEnd = {
    "setup_s",           "peak_rss_mb",      "jobs_per_vsec",
    "job_start_mean_ms", "job_start_p90_ms",
};
const std::vector<std::string> kPerLayer = {
    "sim_speedup",              "simtime.advances_per_job", "simtime.events_per_advance",
    "simtime.wall_us_per_advance", "simtime.events", "simtime.advances",
    "vnet.msgs_per_job", "vnet.bytes_per_job", "vnet.drops_setup",
    "vnet.drops_run", "svc.server.calls_per_job", "svc.server.errors",
    "torque.submit_mean_ms", "torque.queue_wait_mean_ms", "torque.dyngets",
    "maui.cycles_per_vsec", "maui.decisions_per_cycle", "maui.dyn_rejected",
    "minimpi.spawns", "dacc.calls", "gpusim.kernels", "gpusim.bytes_copied",
    "trace.overhead_pct", "trace.spans",
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A counter's growth between two readings.
double delta(std::uint64_t later, std::uint64_t earlier) {
  return static_cast<double>(later - earlier);
}

// Virtual seconds per wall second in consecutive windows of at least
// kWindowWallMs (a shorter remainder at the end is dropped): the median over
// windows is the phase's engine speed, robust to host load that comes and
// goes during a run. A phase shorter than one window is one window.
constexpr double kWindowWallMs = 500.0;
Samples window_speedups(const std::vector<Stamp>& marks) {
  Samples out;
  std::size_t a = 0;
  for (std::size_t b = 1; b < marks.size(); ++b) {
    const double w = marks[b].w - marks[a].w;
    if (w >= kWindowWallMs) {
      out.add((marks[b].v - marks[a].v) / w);
      a = b;
    }
  }
  if (out.count() == 0 && marks.size() > 1) {
    out.add(per(marks.back().v - marks.front().v,
                marks.back().w - marks.front().w));
  }
  return out;
}

// ---- output checks ----------------------------------------------------------

// Operations attempted and failed, summed over the phases of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add_phase(const Probe& p) {
    const std::uint64_t decisions = p.counter("dynget.granted") +
                                    p.counter("dynget.rejected") +
                                    p.undecided();
    attempted += p.counter("attempt.jobs") + decisions +
                 p.counter("attempt.readbacks");
    failed += p.counter("failed.jobs") + p.counter("failed.programs") +
              p.counter("dynget.rejected") + p.undecided() +
              p.counter("failed.readbacks");
  }
};

// End-of-run state checks: every slot free, no device memory held, no live
// dynamic set left in the ledger.
void check_final_state(core::DacCluster& cluster, torque::Ifl& ifl,
                       Probe& probe, const perfbench::Ledger& ledger) {
  // Slots come back asynchronously (MOM_RELEASE after a job's teardown), so
  // give the cluster a bounded virtual-time window to settle.
  const auto deadline = dac::simtime::now() + std::chrono::seconds(5);
  std::string busy;
  for (;;) {
    busy.clear();
    for (const auto& n : ifl.stat_nodes()) {
      if (n.used != 0 || !n.jobs.empty()) busy += " " + n.hostname;
    }
    if (busy.empty() || dac::simtime::now() > deadline) break;
    dac::simtime::sleep_for(std::chrono::milliseconds(10));
  }
  if (!busy.empty()) probe.violation("slots still in use at the end:" + busy);
  const auto end = read_counters(cluster, probe);
  if (end.device_bytes_in_use != 0) {
    probe.violation("device memory still allocated at the end: " +
                    std::to_string(end.device_bytes_in_use) + " bytes");
  }
  if (ledger.live() != 0) {
    probe.violation(std::to_string(ledger.live()) +
                    " dynamic grants never released");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  const perfbench::WorkloadDef* def = perfbench::find_workload(opt.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 opt.workload.c_str());
    for (const auto& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  dac::simtime::Clock::instance().set_mode(dac::simtime::Mode::kDiscreteEvent);
  Probe probe;
  perfbench::Ledger ledger;

  // ---- setup: boot kBoots times, keep the last cluster -----------------
  Samples setup_s;
  Samples boot_events;
  std::uint64_t setup_drops = 0;
  std::unique_ptr<core::DacCluster> cluster;
  for (int b = 0; b < kBoots; ++b) {
    if (cluster) {
      cluster->shutdown();
      cluster.reset();
    }
    const auto clock0 = dac::simtime::Clock::instance().stats();
    const Stamp t0 = probe.now();
    cluster = std::make_unique<core::DacCluster>(cluster_config());
    perfbench::register_programs(*cluster, probe, ledger);
    setup_s.add((probe.now().w - t0.w) / 1e3);
    boot_events.add(static_cast<double>(
        dac::simtime::Clock::instance().stats().waiters_fired -
        clock0.waiters_fired));
    setup_drops = cluster->vcluster().fabric().messages_dropped_closed();
  }
  auto ifl = cluster->client();
  for (const auto& n : ifl.stat_nodes()) ledger.set_capacity(n.hostname, n.np);
  const Counters after_setup = read_counters(*cluster, probe);

  // ---- warm-up, then the timed phase ---------------------------------------
  perfbench::Driver driver(*cluster, probe, *def, opt.seed);
  Tally tally;
  (void)driver.run(kWarmupJobs, 1e9);
  tally.add_phase(probe);
  probe.reset();

  const Counters start = read_counters(*cluster, probe);
  driver.measure_rss_after(kRssJobs);
  // A traced run measures its first half untraced and its second half
  // traced; the difference in wall cost per virtual second is the tracing
  // overhead.
  const double first_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto untraced = driver.run(SIZE_MAX, first_s);
  const Counters mid = read_counters(*cluster, probe);
  perfbench::Phase traced;
  if (opt.trace) {
    probe.set_tracing(true);
    traced = driver.run(SIZE_MAX, opt.seconds - first_s);
    probe.set_tracing(false);
  }
  const Counters end = read_counters(*cluster, probe);
  const std::size_t jobs = untraced.completed + traced.completed;

  // ---- checks ---------------------------------------------------------------
  tally.add_phase(probe);
  check_final_state(*cluster, ifl, probe, ledger);
  if (end.kernels - start.kernels != probe.counter("dacc.kernels") ||
      end.bytes_copied - start.bytes_copied != probe.counter("dacc.bytes")) {
    probe.violation("gpusim counters disagree with the kernels and bytes the "
                    "jobs issued");
  }
  // Every dynget the jobs issued reached the server once and was decided
  // once by Maui, as the system's own counters tell it.
  const std::uint64_t issued = probe.counter("dynget.issued");
  const std::uint64_t served = end.dynget_calls - start.dynget_calls;
  const std::uint64_t decided =
      (end.sched.dyn_granted - start.sched.dyn_granted) +
      (end.sched.dyn_rejected - start.sched.dyn_rejected);
  if (served != issued || decided != issued) {
    probe.violation("jobs issued " + std::to_string(issued) +
                    " dyngets; pbs_server served " + std::to_string(served) +
                    " and Maui decided " + std::to_string(decided));
  }
  const bool rss_fixed_work = driver.rss_mb() > 0.0;
  const double peak_rss_mb =
      rss_fixed_work ? driver.rss_mb() : perfbench::peak_rss_mb();

  // ---- metrics --------------------------------------------------------------
  const double vsec = (end.at.v - start.at.v) / 1e3;
  const double wall_s = (end.at.w - start.at.w) / 1e3;
  const auto untraced_windows = window_speedups(untraced.marks);
  const double untraced_speedup = untraced_windows.median();
  Samples job_start;
  Samples queue_wait;
  auto spans = probe.spans();
  std::set<perfbench::JobId> traced_ids;
  for (const auto& s : spans) traced_ids.insert(s.trace);
  for (const auto& [id, t] : probe.jobs()) {
    if (!std::isnan(t.ready) && !std::isnan(t.due)) {
      job_start.add(t.ready - t.due);
    }
    if (std::isnan(t.program_start) || std::isnan(t.submitted)) continue;
    queue_wait.add(t.program_start - t.submitted);
    // The wait between submit and program start, as a span of the job
    // (its wall bounds are not known).
    if (traced_ids.count(id) != 0) {
      spans.push_back(probe.make_span("torque.queue_wait", id, 0,
                                      Stamp{t.submitted, 0.0},
                                      Stamp{t.program_start, 0.0}));
    }
  }
  const bool dyn_storm = def->name == "dynget_storm";
  const bool offload = def->name == "offload_grow";
  const auto dynget =
      probe.series(offload ? "rmlib.ac_get.batch" : "torque.dynget");

  Report r;
  r.section("setup (wall)");
  r.add("setup_s", setup_s.median(), "s",
        "median of " + std::to_string(kBoots) + " boots");
  r.add("simtime.boot_events_min", boot_events.min(), "count");
  r.add("simtime.boot_events_max", boot_events.max(), "count");

  r.section("end to end (virtual ms unless marked wall)");
  char speed_note[128];
  std::snprintf(speed_note, sizeof speed_note,
                "median of %zu windows%s; whole phase %.4f",
                untraced_windows.count(), opt.trace ? ", untraced half" : "",
                per(mid.at.v - start.at.v, mid.at.w - start.at.w));
  r.add("sim_speedup", untraced_speedup, "x", speed_note);
  r.add("peak_rss_mb", peak_rss_mb, "MB",
        (rss_fixed_work ? "through the first " : "whole run: fewer than ") +
            std::to_string(kRssJobs) + " timed jobs");
  r.add("jobs_per_vsec", per(static_cast<double>(jobs), vsec), "1/s",
        std::to_string(jobs) + " jobs in " + std::to_string(vsec) +
            " virtual s");
  r.timing("job_start", job_start);
  // What the result line carries (README, "Steadiness"): the mean, because
  // the median falls on one point of the cost model's grid and reads the
  // same to the last digit in most runs; and p90, because p99 on
  // dynget_storm flips between ~5 and ~13 ms from run to run.
  r.add("job_start_mean_ms", job_start.mean(), "ms",
        "n=" + std::to_string(job_start.count()));
  r.add("job_start_p90_ms", job_start.percentile(90.0), "ms",
        "n=" + std::to_string(job_start.count()));
  if (def->name == "static_stream") {
    r.not_applicable("dynget_p50_ms", "ms", "no dynamic path");
    r.not_applicable("dynget_p99_ms", "ms", "no dynamic path");
  } else {
    r.timing("dynget", dynget);
  }
  if (offload) {
    r.timing("ac_get", probe.series("rmlib.ac_get"));
  } else {
    r.not_applicable("ac_get_p50_ms", "ms", "no AC_Get");
    r.not_applicable("ac_get_p99_ms", "ms", "no AC_Get");
  }
  r.add("failed_ratio",
        per(static_cast<double>(tally.failed),
            static_cast<double>(tally.attempted)),
        "ratio", std::to_string(tally.failed) + " of " +
                     std::to_string(tally.attempted) + " operations");

  const double advances = delta(end.clock.advances, start.clock.advances);
  const double events =
      delta(end.clock.waiters_fired, start.clock.waiters_fired);
  const double djobs = static_cast<double>(jobs);
  r.section("simtime (Clock::stats, timed phase)");
  r.add("simtime.advances_per_job", per(advances, djobs), "count");
  r.add("simtime.events_per_advance", per(events, advances), "count");
  r.add("simtime.wall_us_per_advance", per(wall_s * 1e6, advances), "us");
  r.add("simtime.events", events, "count");
  r.add("simtime.advances", advances, "count");

  r.section("vnet (fabric counters)");
  r.add("vnet.msgs_per_job", per(delta(end.msgs, start.msgs), djobs), "count");
  r.add("vnet.bytes_per_job", per(delta(end.bytes, start.bytes), djobs), "B");
  r.add("vnet.drops_setup", static_cast<double>(setup_drops), "count",
        "during the last boot");
  r.add("vnet.drops_warmup", delta(start.drops, after_setup.drops), "count");
  r.add("vnet.drops_run", delta(end.drops, start.drops), "count");

  const auto snap = cluster->metrics_snapshot();
  const auto rpc = [&](torque::MsgType t) {
    return snap.find(static_cast<std::uint32_t>(t));
  };
  r.section("svc (pbs_server metrics_snapshot, whole run)");
  r.add("svc.server.calls_per_job",
        per(delta(end.rpc_calls, start.rpc_calls), djobs), "count");
  if (const auto* s = rpc(torque::MsgType::kSubmit)) {
    r.add("svc.server.submit_p99_ms", s->p99_ms, "ms");
  }
  if (const auto* s = rpc(torque::MsgType::kDynGet);
      s != nullptr && s->calls > 0) {
    r.add("svc.server.dynget_p99_ms", s->p99_ms, "ms");
  } else {
    r.not_applicable("svc.server.dynget_p99_ms", "ms", "no pbs_dynget");
  }
  r.add("svc.server.errors", delta(end.rpc_errors, start.rpc_errors),
        "count");

  r.section("torque (IFL calls timed by the benchmark)");
  // Means go to the result line: like job_start, these percentiles sit on
  // the cost model's grid and repeat to the last digit.
  const auto submit = probe.series("torque.submit");
  r.timing("torque.submit", submit);
  r.add("torque.submit_mean_ms", submit.mean(), "ms");
  r.timing("torque.queue_wait", queue_wait);
  r.add("torque.queue_wait_mean_ms", queue_wait.mean(), "ms");
  r.add("torque.dyngets", static_cast<double>(dynget.count()), "count");
  if (dyn_storm) {
    r.timing("torque.dynfree", probe.series("torque.dynfree"));
  } else {
    r.not_applicable("torque.dynfree_p99_ms", "ms",
                     offload ? "inside rmlib.ac_free" : "no pbs_dynfree");
  }

  const double cycles = delta(end.sched.cycles, start.sched.cycles);
  r.section("maui (scheduler_stats)");
  r.add("maui.cycles_per_vsec", per(cycles, vsec), "1/s");
  r.add("maui.decisions_per_cycle",
        per(delta(end.sched.jobs_started, start.sched.jobs_started) +
                delta(end.sched.dyn_granted, start.sched.dyn_granted) +
                delta(end.sched.dyn_rejected, start.sched.dyn_rejected),
            cycles),
        "count");
  r.add("maui.dyn_rejected",
        delta(end.sched.dyn_rejected, start.sched.dyn_rejected), "count");

  r.section("rmlib / minimpi (InitTiming, GetResult, timed calls)");
  r.timing("rmlib.ac_init.waiting", probe.series("rmlib.ac_init.waiting"));
  r.timing("rmlib.ac_init.connect", probe.series("rmlib.ac_init.connect"));
  r.timing("rmlib.ac_get.batch", probe.series("rmlib.ac_get.batch"));
  r.timing("rmlib.ac_get.mpi", probe.series("rmlib.ac_get.mpi"));
  r.timing("rmlib.ac_free", probe.series("rmlib.ac_free"));
  r.add("minimpi.spawns", static_cast<double>(probe.counter("minimpi.spawns")),
        "count", "granted AC_Gets");

  r.section("dacc / gpusim (timed AcSession calls, DeviceStats)");
  for (const std::string op : {"dacc.h2d", "dacc.kernel", "dacc.d2h"}) {
    r.timing(op, probe.series(op));
    r.timing(op + ".wall", probe.series(op + ".wall"));
  }
  r.add("dacc.calls", static_cast<double>(probe.counter("dacc.calls")),
        "count");
  r.add("gpusim.kernels", delta(end.kernels, start.kernels), "count");
  r.add("gpusim.bytes_copied", delta(end.bytes_copied, start.bytes_copied),
        "B");

  r.section("driver");
  if (def->in_flight == 0) {
    r.timing("driver.lateness", probe.series("driver.lateness"));
  } else {
    r.not_applicable("driver.lateness_p99_ms", "ms", "closed loop");
  }

  r.section("trace");
  if (opt.trace) {
    const double traced_speedup = window_speedups(traced.marks).median();
    r.add("trace.overhead_pct",
          (per(untraced_speedup, traced_speedup) - 1.0) * 100.0, "%",
          "sim_speedup untraced vs traced half");
    r.add("trace.spans", static_cast<double>(spans.size()), "count");
  } else {
    r.not_applicable("trace.overhead_pct", "%", "untraced run");
  }

  const auto violations = probe.violations();
  const bool correct = violations.empty() && tally.failed == 0;
  const std::string loop =
      def->in_flight > 0
          ? "closed loop, " + std::to_string(def->in_flight) + " in flight"
          : "open loop, " + std::to_string(def->rate_hz) + " jobs/vs";
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d, %s\n",
              def->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, loop.c_str());
  r.print();

  if (opt.trace) {
    // Every span of a job lies on its blocking path: a job program is one
    // sequential thread per rank, and the driver waits on each job. Spans
    // named *wait* are time spent waiting on another layer (queue wait for
    // Maui, AC_Init's wait for the daemons' port); the rest is self time.
    const auto rows = perfbench::self_times(spans);
    const double traced_jobs = static_cast<double>(traced.completed);
    std::printf(
        "\n[traced run: per span, per job of the traced half (%zu jobs)]\n",
        traced.completed);
    std::printf("  %-24s %8s %13s %12s %16s\n", "span", "count", "total_ms/job",
                "self_ms/job", "self_wall_us/job");
    struct Layer {
      double self_v = 0.0, wait_v = 0.0, self_w = 0.0;
    };
    std::map<std::string, Layer> layers;
    for (const auto& row : rows) {
      std::printf("  %-24s %8zu %13.4f %12.4f %16.2f\n", row.name.c_str(),
                  row.count, per(row.total_v, traced_jobs),
                  per(row.self_v, traced_jobs),
                  per(row.self_w * 1e3, traced_jobs));
      auto& layer = layers[row.name.substr(0, row.name.find('.'))];
      const bool wait = row.name.find("wait") != std::string::npos;
      (wait ? layer.wait_v : layer.self_v) += row.self_v;
      layer.self_w += row.self_w;
    }
    std::printf("\n[traced run: per layer along the blocking path, per job]\n");
    std::printf("  %-10s %12s %12s %16s\n", "layer", "self_ms", "wait_ms",
                "self_wall_us");
    for (const auto& [name, l] : layers) {
      std::printf("  %-10s %12.4f %12.4f %16.2f\n", name.c_str(),
                  per(l.self_v, traced_jobs), per(l.wait_v, traced_jobs),
                  per(l.self_w * 1e3, traced_jobs));
    }
    if (!opt.trace_file.empty()) {
      try {
        dac::trace::write_chrome_trace(opt.trace_file, spans);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
      }
    }
  }
  for (const auto& v : violations) std::printf("CHECK FAILED: %s\n", v.c_str());

  cluster->shutdown();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& name : opt.trace ? kPerLayer : kEndToEnd) {
    const Metric* m = r.find(name);
    if (m == nullptr || !m->applicable) continue;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m->value, m->unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
