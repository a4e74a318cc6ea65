// Timing knobs of the batch system. These model where a real deployment
// spends time — server request processing, per-job scheduler work, mom join
// handling, daemon startup — and are the calibration surface for the paper's
// Figures 7-9. Two profiles: fast() keeps tests quick; calibrated() is tuned
// so the benchmark harness lands in the paper's sub-second ranges.
#pragma once

#include <chrono>

namespace dac::torque {

struct BatchTiming {
  using usec = std::chrono::microseconds;
  using msec = std::chrono::milliseconds;

  // pbs_server: processing cost charged per incoming request.
  usec server_service_cost{100};
  // pbs_mom: cost of handling a JOIN_JOB / DYNJOIN_JOB for one host.
  usec mom_join_cost{200};

  // Maui: cost of evaluating one queued job during a scheduling cycle
  // (priority computation + node matching). Drives Figure 8: a dynamic
  // request arriving mid-cycle waits for cycle completion.
  usec sched_job_eval_cost{200};
  // Maui: base cost of servicing one dynamic request (Figure 9's steps).
  usec sched_dyn_base_cost{200};
  // Maui: additional cost per node allocated to a request (Figure 7(b)'s
  // growth with the number of requested accelerators).
  usec sched_per_node_cost{100};
  // Maui: idle poll interval. Submissions also wake the scheduler directly.
  msec sched_cycle_interval{50};

  // Startup cost of a statically started accelerator daemon. The batch
  // system execs them host by host, hence the per-rank stagger (Figure 7(a)
  // waiting time grows with the accelerator count).
  usec static_daemon_start_delay{2000};
  usec static_daemon_start_stagger{1000};
  // Startup cost of an MPI_Comm_spawn'ed daemon (dynamic path): the MPI
  // runtime starts ranks in parallel, so no stagger (Figure 7(b)'s flat
  // MPI-operations share).
  usec spawned_daemon_start_delay{1000};
  // Startup cost of a job-script process.
  usec job_start_delay{200};

  // Fault tolerance: moms heartbeat at this interval; the server marks a
  // node down once its last heartbeat is older than
  // heartbeat_stale_factor * interval. The factor is generous because a
  // mother superior busy setting a job up heartbeats only between
  // messages — declaring a busy node dead would kill its jobs.
  msec mom_heartbeat_interval{25};
  int heartbeat_stale_factor = 40;
  // A node whose heartbeat is older than heartbeat_suspect_factor *
  // interval is "suspect": excluded from new placements but nothing is
  // reclaimed. Must be < heartbeat_stale_factor so suspicion precedes the
  // down declaration (flapping links degrade placement, not jobs).
  int heartbeat_suspect_factor = 20;
  // How often a job whose compute node is declared down may be requeued
  // before being failed. 0 (the default) preserves the historical behavior:
  // node death cancels the job outright. Recovery tests opt in with >= 1.
  int job_requeue_limit = 0;
  // How often a mother superior checks its jobs against their walltime.
  // Zero means "every heartbeat interval". Kept separate so tests can speed
  // up enforcement without also shrinking the liveness window.
  msec mom_walltime_check_interval{0};

  // Elastic negotiation: how long a pending offer (and its grow-side slot
  // reservation) may wait for the job agent's ack before the server reverts
  // it. The offer is a call with this deadline, so the revert lands at
  // exactly this age, not on a later tick.
  msec elastic_offer_timeout{2'000};

  // Test profile: everything fast, shapes preserved.
  static BatchTiming fast() { return BatchTiming{}; }

  // Paper-like profile: sub-second static/dynamic allocation totals on an
  // 8-node virtual cluster.
  static BatchTiming calibrated() {
    BatchTiming t;
    t.server_service_cost = usec{2'000};
    t.mom_join_cost = usec{4'000};
    t.sched_job_eval_cost = usec{25'000};
    t.sched_dyn_base_cost = usec{120'000};
    t.sched_per_node_cost = usec{30'000};
    t.sched_cycle_interval = msec{100};
    t.static_daemon_start_delay = usec{90'000};
    t.static_daemon_start_stagger = usec{35'000};
    t.spawned_daemon_start_delay = usec{60'000};
    t.job_start_delay = usec{10'000};
    t.mom_heartbeat_interval = msec{200};
    t.heartbeat_stale_factor = 5;  // 1 s to down-detection
    t.heartbeat_suspect_factor = 3;  // 600 ms to suspicion
    return t;
  }
};

}  // namespace dac::torque
