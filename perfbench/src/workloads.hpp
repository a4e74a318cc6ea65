// The benchmark's workloads: each is a job mix fed to the cluster by one
// driver thread through one IFL client, either as a closed loop (waves of a
// bounded number of in-flight jobs) or as an open loop (Poisson arrivals in
// virtual time). All input comes from workload::WorkloadGenerator and the
// seed; the job programs receive only their generated arguments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "probe.hpp"
#include "workload/workload.hpp"

namespace perfbench {

// What a job program does (its first argument).
enum class Kind : std::uint8_t {
  kGetter,   // grow_compute(1) on a shared grid, hold, release_compute
  kSleep,    // sleep only: holds its static slots, never calls AC_Init
  kStatic,   // AC_Init when acpn > 0, short sleep, AC_Finalize
  kOffload,  // AC_Init, AC_Get(y), offload on every AC, AC_Free, finalize
};

struct JobClass {
  dac::workload::JobTemplate tmpl;  // geometry, runtime (ms), weight
  Kind kind = Kind::kSleep;
  int count = 0;  // kOffload: accelerators requested by AC_Get
};

struct WorkloadDef {
  std::string name;
  // Closed loop when > 0: waves of this many jobs, the next wave submitted
  // once the previous one completed. 0: open loop at `rate_hz`.
  std::size_t in_flight = 0;
  double rate_hz = 0.0;  // Poisson arrivals per virtual second
  std::vector<JobClass> mix;
};

[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

// The program every benchmark job runs.
inline constexpr const char* kJobProgram = "perfbench.job";
void register_programs(dac::core::DacCluster& cluster, Probe& probe,
                       Ledger& ledger);

// What one phase of the driver did.
struct Phase {
  Stamp start;
  Stamp end;
  std::size_t submitted = 0;
  std::size_t completed = 0;  // COMPLETED with exit status 0
  // Stamps from start to end: after every wave (closed loop) or every 16th
  // submission (open loop), for per-window engine speed.
  std::vector<Stamp> marks;
};

class Driver {
 public:
  Driver(dac::core::DacCluster& cluster, Probe& probe, const WorkloadDef& def,
         std::uint64_t seed);

  // Submits jobs until `max_jobs` were submitted or `wall_s` wall seconds
  // passed, then waits until every submitted job ended.
  Phase run(std::size_t max_jobs, double wall_s);

  // Reads the process's peak resident memory when the `jobs`-th job from
  // now completes, so the figure covers a fixed amount of work however fast
  // the run goes. rss_mb() is 0 until then.
  void measure_rss_after(std::size_t jobs);
  [[nodiscard]] double rss_mb() const { return rss_mb_; }

 private:
  const dac::workload::GeneratedJob& peek();
  dac::workload::GeneratedJob next();
  dac::torque::JobId submit(const dac::workload::GeneratedJob& job,
                            double due_v);
  void await(dac::torque::JobId id, Phase& phase);

  Probe& probe_;
  const WorkloadDef& def_;
  dac::torque::Ifl ifl_;
  std::uint64_t seed_;
  // Input stream: generated in chunks, arrivals continuing across them.
  std::vector<dac::workload::GeneratedJob> chunk_;
  std::size_t pos_ = 0;
  std::uint64_t chunk_index_ = 0;
  std::uint64_t sequence_ = 0;
  std::size_t rss_countdown_ = 0;
  double rss_mb_ = 0.0;
};

}  // namespace perfbench
