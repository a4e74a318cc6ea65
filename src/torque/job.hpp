// Job model of the TORQUE-like resource manager: resource requests (with the
// paper's `acpn` extension for network-attached accelerators per compute
// node), job states (with the paper's special DYNQUEUED state for runtime
// requests), and the serializable job records exchanged between client,
// server, scheduler and moms.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace dac::torque {

using JobId = std::uint64_t;
inline constexpr JobId kInvalidJob = 0;

enum class JobState : std::uint8_t {
  kQueued = 0,     // waiting for resources (qsub)
  kDynQueued,      // a running job waiting for a dynamic allocation (paper)
  kRunning,
  kExiting,        // tear-down in progress
  kComplete,
  kCancelled,
};

[[nodiscard]] const char* job_state_name(JobState s);

// qsub -l nodes=<nodes>:ppn=<ppn>:acpn=<acpn>, walltime=<walltime>
struct ResourceRequest {
  int nodes = 1;  // compute nodes (k)
  int ppn = 1;    // processes per node
  int acpn = 0;   // network-attached accelerators per compute node (paper)
  std::chrono::milliseconds walltime{60'000};  // estimate, used by backfill

  [[nodiscard]] int total_accelerators() const { return nodes * acpn; }
};

struct JobSpec {
  std::string name = "job";
  std::string owner = "user";
  // Name of a registered job program (the "job script"); empty for jobs
  // that exist only as scheduling load (the paper's Figure 8 background).
  std::string program;
  util::Bytes program_args;
  ResourceRequest resources;
  int priority = 0;  // site/QoS priority contribution
};

// Server-side job record; also what qstat returns.
struct JobInfo {
  JobId id = kInvalidJob;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::vector<std::string> compute_hosts;
  std::vector<std::string> accel_hosts;  // statically assigned accelerators
  // Dynamically added hosts currently held (accelerators — or compute
  // nodes for malleable grants), newest last.
  std::vector<std::string> dyn_accel_hosts;
  // Seconds since server start (the server's clock), for metrics/priority.
  double submit_time = 0.0;
  double start_time = -1.0;
  double end_time = -1.0;
  // 0 = clean completion; 1 = killed (qdel); 2 = walltime exceeded.
  int exit_status = 0;
  // How many times this job was requeued after a compute-node failure
  // (bounded by BatchConfig::job_requeue_limit; fault tolerance).
  int requeues = 0;
  // Trace context captured at submission (src/trace): the scheduler and the
  // launch path parent their spans on it, so one trace id follows the job
  // from qsub to completion. 0 = submission was not traced.
  std::uint64_t trace_id = 0;
  std::uint64_t origin_span = 0;
};

inline constexpr int kExitOk = 0;
inline constexpr int kExitKilled = 1;
inline constexpr int kExitWalltime = 2;

// Jobs pbs_server has retired: a terminal job's record is replaced, once
// its retention window has passed, by a compact tombstone (id, final state,
// exit status) in this ring. Slot `id % capacity` keeps the newest id that
// retired into it, so a retired id stays answerable until an id `capacity`
// higher retires; after that it is unknown. Slots are allocated a chunk at
// a time as ids first reach them, so memory follows the ids retired, up to
// `capacity` tombstones.
class RetiredJobs {
 public:
  explicit RetiredJobs(std::size_t capacity) : capacity_(capacity) {}

  void add(const JobInfo& info);
  // The tombstone as a JobInfo: id, state and exit status; the rest
  // defaulted.
  [[nodiscard]] std::optional<JobInfo> find(JobId id) const;
  // Every tombstone in the ring, in id order.
  [[nodiscard]] std::vector<JobInfo> list() const;

 private:
  struct Tombstone {
    JobId id = kInvalidJob;
    JobState state = JobState::kComplete;
    int exit_status = 0;
  };
  static constexpr std::size_t kChunk = 1024;  // tombstones per allocation

  static JobInfo info_of(const Tombstone& t);

  std::size_t capacity_;
  // Chunk i holds slots [i * kChunk, (i + 1) * kChunk); empty until used.
  std::vector<std::vector<Tombstone>> chunks_;
};

void put_resource_request(util::ByteWriter& w, const ResourceRequest& r);
ResourceRequest get_resource_request(util::ByteReader& r);

void put_job_spec(util::ByteWriter& w, const JobSpec& s);
JobSpec get_job_spec(util::ByteReader& r);

void put_job_info(util::ByteWriter& w, const JobInfo& j);
JobInfo get_job_info(util::ByteReader& r);

}  // namespace dac::torque
