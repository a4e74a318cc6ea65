#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>

#include "simtime/clock.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace core = dac::core;
namespace torque = dac::torque;
namespace wl = dac::workload;
using std::chrono::milliseconds;

namespace {

// ---- workload definitions -------------------------------------------------

JobClass job_class(std::string name, int nodes, int acpn, int runtime_ms,
                   double weight, Kind kind, int count = 0) {
  JobClass c;
  c.tmpl.name = std::move(name);
  c.tmpl.nodes = nodes;
  c.tmpl.acpn = acpn;
  c.tmpl.runtime = milliseconds(runtime_ms);
  // Far above any job's run time: a kill would only hide a hang.
  c.tmpl.walltime = milliseconds(60'000);
  c.tmpl.weight = weight;
  c.kind = kind;
  c.count = count;
  return c;
}

std::vector<WorkloadDef> make_workloads() {
  std::vector<WorkloadDef> defs;

  // bench_sched_throughput's batched mix: 16 in flight, three of four jobs
  // malleable getters (hold 50 ms), the rest static sleepers on one AC.
  WorkloadDef storm{.name = "dynget_storm", .in_flight = 16};
  storm.mix.push_back(job_class("getter", 1, 0, 50, 3.0, Kind::kGetter));
  storm.mix.push_back(job_class("sleep", 1, 1, 10, 1.0, Kind::kSleep));
  defs.push_back(std::move(storm));

  // Open loop over the static path: 1-2 CNs x 0-4 ACs each, AC_Init and a
  // 20 ms sleep. The rate is about half the static path's capacity of
  // ~1,000 jobs per virtual second (README, "Workloads").
  WorkloadDef stream{.name = "static_stream", .rate_hz = 500.0};
  for (int nodes = 1; nodes <= 2; ++nodes) {
    for (int acpn = 0; acpn <= 4; ++acpn) {
      stream.mix.push_back(job_class(
          "static." + std::to_string(nodes) + "x" + std::to_string(acpn),
          nodes, acpn, 20, nodes == 1 ? 2.0 : 1.0, Kind::kStatic));
    }
  }
  defs.push_back(std::move(stream));

  // 16 in flight, each 1 static AC plus AC_Get(1..4): at most 80 of the 88
  // ACs are ever held, so no AC_Get can be refused.
  WorkloadDef grow{.name = "offload_grow", .in_flight = 16};
  for (int y = 1; y <= 4; ++y) {
    grow.mix.push_back(job_class("offload.y" + std::to_string(y), 1, 1, 0,
                                 1.0, Kind::kOffload, y));
  }
  defs.push_back(std::move(grow));
  return defs;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = make_workloads();
  return defs;
}

const JobClass& class_of(const WorkloadDef& def, const std::string& name) {
  for (const auto& c : def.mix) {
    if (c.tmpl.name == name) return c;
  }
  throw std::logic_error("perfbench: no job class " + name);
}

// ---- job programs ---------------------------------------------------------

struct JobInput {
  Kind kind = Kind::kSleep;
  int count = 0;
  std::uint32_t ms = 0;
  double value = 0.0;  // offload: what the buffers are filled with
};

dac::util::Bytes encode(const JobInput& in) {
  dac::util::ByteWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(in.kind));
  w.put<std::int32_t>(in.count);
  w.put<std::uint32_t>(in.ms);
  w.put<double>(in.value);
  return std::move(w).take();
}

JobInput decode(const dac::util::Bytes& bytes) {
  dac::util::ByteReader r(bytes);
  JobInput in;
  in.kind = static_cast<Kind>(r.get<std::uint8_t>());
  in.count = r.get<std::int32_t>();
  in.ms = r.get<std::uint32_t>();
  in.value = r.get<double>();
  return in;
}

// Records AC_Init's own waiting/connect split as samples and, when
// tracing, as two child spans of the timed call. Their wall bounds are not
// known, so they take none: the call's wall time stays its self time.
void record_init_split(Probe& probe, const Timed& call, JobId job,
                       const dac::rmlib::InitTiming& t) {
  const double waiting = t.waiting_s * 1e3;
  const double connect = t.connect_s * 1e3;
  probe.add("rmlib.ac_init.waiting", waiting);
  probe.add("rmlib.ac_init.connect", connect);
  Stamp mid = call.start();
  mid.v += waiting;
  Stamp end = mid;
  end.v += connect;
  probe.span("rmlib.ac_init.waiting", job, call.id(), call.start(), mid);
  probe.span("minimpi.connect", job, call.id(), mid, end);
}

void record_get_split(Probe& probe, const Timed& call, JobId job,
                      const dac::rmlib::GetResult& r) {
  const double batch = r.batch_s * 1e3;
  const double mpi = r.mpi_s * 1e3;
  probe.add("rmlib.ac_get.batch", batch);
  probe.add("rmlib.ac_get.mpi", mpi);
  Stamp mid = call.start();
  mid.v += batch;
  Stamp end = mid;
  end.v += mpi;
  probe.span("torque.dynget", job, call.id(), call.start(), mid);
  probe.span("minimpi.spawn_merge", job, call.id(), mid, end);
}

// One dynamically granted compute node: grow, hold, release.
void run_getter(core::JobContext& ctx, Probe& probe, Ledger& ledger,
                const JobInput& in) {
  const auto job = ctx.job_id();
  core::interruptible_sleep(ctx, milliseconds(5));
  // Align to a shared 50 ms virtual-time grid so a wave's requests reach the
  // server inside one scheduler cycle and are decided as one kDynDecide
  // batch. sleep_until (not interruptible_sleep) for exact ties.
  const auto grid = milliseconds(50);
  const auto since = dac::simtime::now().time_since_epoch();
  dac::simtime::sleep_until(
      dac::simtime::TimePoint(since - (since % grid) + grid));

  probe.count("dynget.issued");
  Timed get(probe, "torque.dynget", job);
  const auto grant = ctx.grow_compute(1, 1);
  get.finish();
  probe.decision(job, grant.granted);
  if (!grant.granted) return;
  ledger.grant(probe, grant.hosts);
  // Long enough for the MOM_DYN_ADD/DYNJOIN handshake to settle, as in
  // bench_sched_throughput: releasing earlier measures a mom stall instead.
  core::interruptible_sleep(ctx, milliseconds(in.ms));
  ledger.release(grant.hosts);
  Timed free(probe, "torque.dynfree", job);
  ctx.release_compute(grant.client_id);
  free.finish();
}

// Static allocation: AC_Init when the job holds accelerators, then sleep.
void run_static(core::JobContext& ctx, Probe& probe, const JobInput& in,
                bool init) {
  const auto job = ctx.job_id();
  const bool accelerators = init && ctx.info().acpn > 0;
  if (accelerators) {
    dac::rmlib::InitTiming t;
    Timed call(probe, "rmlib.ac_init", job);
    (void)ctx.session().ac_init(&t);
    call.finish();
    record_init_split(probe, call, job, t);
  }
  if (ctx.rank() == 0) probe.job_ready(job);
  core::interruptible_sleep(ctx, milliseconds(in.ms));
  if (accelerators) {
    Timed call(probe, "rmlib.ac_finalize", job);
    ctx.session().ac_finalize();
    call.finish();
  }
}

// Per accelerator: alloc, h2d of the first half, `fill` kernel over the
// second half, one d2h of the whole buffer checked against both, free.
void offload_one(Probe& probe, dac::rmlib::AcSession& s,
                 dac::rmlib::AcHandle ac, JobId job, double value) {
  constexpr std::size_t kDoubles = 1024;  // 8 KiB buffer, 4 KiB h2d
  constexpr std::size_t kHalf = kDoubles / 2;
  std::vector<double> head(kHalf);
  for (std::size_t i = 0; i < kHalf; ++i) {
    head[i] = value + static_cast<double>(i);
  }

  Timed alloc(probe, "dacc.alloc", job);
  const auto buf = s.ac_mem_alloc(ac, kDoubles * sizeof(double));
  alloc.finish();

  Timed h2d(probe, "dacc.h2d", job);
  s.ac_memcpy_h2d(ac, buf, std::as_bytes(std::span(head)));
  h2d.finish();

  Timed kernel(probe, "dacc.kernel", job);
  const auto k = s.ac_kernel_create(ac, "fill");
  dac::util::ByteWriter args;
  args.put<std::uint64_t>(buf + kHalf * sizeof(double));
  args.put<double>(-value);
  args.put<std::uint64_t>(kHalf);
  s.ac_kernel_set_args(ac, k, std::move(args).take());
  s.ac_kernel_run(ac, k, {1, 1, 1}, {static_cast<std::uint32_t>(kHalf), 1, 1});
  kernel.finish();

  Timed d2h(probe, "dacc.d2h", job);
  const auto back = s.ac_memcpy_d2h(ac, buf, kDoubles * sizeof(double));
  d2h.finish();

  Timed free(probe, "dacc.free", job);
  s.ac_mem_free(ac, buf);
  free.finish();

  probe.count("attempt.readbacks");
  probe.count("dacc.calls", 5);
  probe.count("dacc.kernels");
  probe.count("dacc.bytes", kHalf * sizeof(double) + back.size());
  bool ok = back.size() == kDoubles * sizeof(double);
  for (std::size_t i = 0; ok && i < kDoubles; ++i) {
    double got = 0.0;
    std::memcpy(&got, back.data() + i * sizeof(double), sizeof(double));
    ok = got == (i < kHalf ? head[i] : -value);
  }
  if (!ok) probe.count("failed.readbacks");
}

void run_offload(core::JobContext& ctx, Probe& probe, Ledger& ledger,
                 const JobInput& in) {
  const auto job = ctx.job_id();
  auto& s = ctx.session();
  {
    dac::rmlib::InitTiming t;
    Timed call(probe, "rmlib.ac_init", job);
    (void)s.ac_init(&t);
    call.finish();
    record_init_split(probe, call, job, t);
  }
  probe.job_ready(job);

  probe.count("dynget.issued");
  Timed get(probe, "rmlib.ac_get", job);
  const auto got = s.ac_get(in.count);
  get.finish();
  record_get_split(probe, get, job, got);
  probe.decision(job, got.granted);
  if (got.granted) {
    probe.count("minimpi.spawns");
    ledger.grant(probe, got.reply.hosts);
  }

  for (const auto ac : s.handles()) offload_one(probe, s, ac, job, in.value);

  if (got.granted) {
    ledger.release(got.reply.hosts);
    Timed free(probe, "rmlib.ac_free", job);
    s.ac_free(got.client_id);
    free.finish();
  }
  Timed fin(probe, "rmlib.ac_finalize", job);
  s.ac_finalize();
  fin.finish();
}

void run_job(core::JobContext& ctx, Probe& probe, Ledger& ledger) {
  const auto job = ctx.job_id();
  if (ctx.rank() == 0) probe.job_program_start(job);
  const JobInput in = decode(ctx.info().program_args);
  Timed run(probe, "job", job);
  try {
    switch (in.kind) {
      case Kind::kGetter:
        if (ctx.rank() == 0) probe.job_ready(job);
        run_getter(ctx, probe, ledger, in);
        break;
      case Kind::kSleep:
        run_static(ctx, probe, in, /*init=*/false);
        break;
      case Kind::kStatic:
        run_static(ctx, probe, in, /*init=*/true);
        break;
      case Kind::kOffload:
        run_offload(ctx, probe, ledger, in);
        break;
    }
  } catch (const dac::util::StoppedError&) {
    throw;
  } catch (const std::exception& e) {
    // The job wrapper would log this and still report a clean exit.
    std::fprintf(stderr, "perfbench: job %llu rank %d failed: %s\n",
                 static_cast<unsigned long long>(job), ctx.rank(), e.what());
    probe.count("failed.programs");
    return;
  }
  run.finish();
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& def : workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& def : workloads()) names.push_back(def.name);
  return names;
}

void register_programs(core::DacCluster& cluster, Probe& probe,
                       Ledger& ledger) {
  cluster.register_program(kJobProgram,
                           [&probe, &ledger](core::JobContext& ctx) {
                             run_job(ctx, probe, ledger);
                           });
}

// ---- driver -----------------------------------------------------------------

Driver::Driver(core::DacCluster& cluster, Probe& probe, const WorkloadDef& def,
               std::uint64_t seed)
    : probe_(probe), def_(def), ifl_(cluster.client()), seed_(seed) {}

const wl::GeneratedJob& Driver::peek() {
  if (pos_ == chunk_.size()) {
    constexpr std::size_t kChunk = 1024;
    wl::WorkloadConfig cfg;
    // Chunk seeds are derived from the run seed, so the stream is one
    // replayable sequence however many chunks a run consumes.
    cfg.seed = seed_ * 0x9E3779B97F4A7C15ULL + chunk_index_++;
    cfg.job_count = kChunk;
    cfg.arrival_rate_hz = def_.rate_hz > 0.0 ? def_.rate_hz : 1.0;
    for (const auto& c : def_.mix) cfg.mix.push_back(c.tmpl);
    const double base = chunk_.empty() ? 0.0 : chunk_.back().arrival_s;
    chunk_ = wl::WorkloadGenerator(cfg).generate();
    for (auto& j : chunk_) j.arrival_s += base;
    pos_ = 0;
  }
  return chunk_[pos_];
}

wl::GeneratedJob Driver::next() {
  auto job = peek();
  ++pos_;
  return job;
}

torque::JobId Driver::submit(const wl::GeneratedJob& job, double due_v) {
  const JobClass& c = class_of(def_, job.tmpl.name);
  JobInput in;
  in.kind = c.kind;
  in.count = c.count;
  in.ms = static_cast<std::uint32_t>(job.tmpl.runtime.count());
  in.value = 0.5 + static_cast<double>(sequence_++ % 4096);
  auto spec = wl::to_spec(job, kJobProgram);
  spec.program_args = encode(in);

  const Stamp t0 = probe_.now();
  const auto id = ifl_.submit(spec);
  const Stamp t1 = probe_.now();
  probe_.add("torque.submit", t1.v - t0.v);
  probe_.add("torque.submit.wall", t1.w - t0.w);
  probe_.span("torque.submit", id, 0, t0, t1);
  probe_.job_due(id, due_v, t1.v);
  probe_.count("attempt.jobs");
  if (c.kind == Kind::kGetter || c.kind == Kind::kOffload) {
    probe_.expect_decision(id);
  }
  return id;
}

void Driver::await(torque::JobId id, Phase& phase) {
  const auto info = ifl_.wait_for_state(id, torque::JobState::kComplete,
                                        milliseconds(300'000));
  if (rss_countdown_ > 0 && --rss_countdown_ == 0) rss_mb_ = peak_rss_mb();
  if (info && info->state == torque::JobState::kComplete &&
      info->exit_status == torque::kExitOk) {
    ++phase.completed;
    return;
  }
  probe_.count("failed.jobs");
  std::fprintf(stderr, "perfbench: job %llu did not complete cleanly (%s)\n",
               static_cast<unsigned long long>(id),
               info ? torque::job_state_name(info->state) : "timeout");
}

void Driver::measure_rss_after(std::size_t jobs) {
  rss_countdown_ = jobs;
  rss_mb_ = 0.0;
}

Phase Driver::run(std::size_t max_jobs, double wall_s) {
  Phase phase;
  phase.start = probe_.now();
  phase.marks.push_back(phase.start);
  const double wall_end = phase.start.w + wall_s * 1e3;
  std::vector<torque::JobId> ids;

  if (def_.in_flight > 0) {
    while (phase.submitted < max_jobs && probe_.now().w < wall_end) {
      ids.clear();
      for (std::size_t i = 0; i < def_.in_flight && phase.submitted < max_jobs;
           ++i, ++phase.submitted) {
        ids.push_back(submit(next(), probe_.now().v));
      }
      for (const auto id : ids) await(id, phase);
      phase.marks.push_back(probe_.now());
    }
  } else {
    // Open loop: each job is due at its arrival offset from the phase start;
    // latency counts from the due time, so a late generator shows as both
    // driver.lateness and job start latency.
    const auto origin = dac::simtime::now();
    const Stamp origin_stamp = probe_.now();
    const double first = peek().arrival_s;
    while (phase.submitted < max_jobs && probe_.now().w < wall_end) {
      const auto job = next();
      const auto offset = std::chrono::duration<double>(job.arrival_s - first);
      dac::simtime::sleep_until(
          origin +
          std::chrono::duration_cast<dac::simtime::Duration>(offset));
      const double due_v = origin_stamp.v + offset.count() * 1e3;
      probe_.add("driver.lateness", probe_.now().v - due_v);
      ids.push_back(submit(job, due_v));
      if (++phase.submitted % 16 == 0) phase.marks.push_back(probe_.now());
    }
    for (const auto id : ids) await(id, phase);
  }
  phase.end = probe_.now();
  phase.marks.push_back(phase.end);
  return phase;
}

}  // namespace perfbench
