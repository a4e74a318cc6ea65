// Top-level configuration of a DAC cluster instance: topology (one head node
// running pbs_server + maui, plus compute and accelerator nodes), network
// model, batch-system timing, scheduling policy, and device parameters.
// fast() keeps the full stack snappy for tests; paper_testbed() mirrors the
// paper's 8-node evaluation setup with calibrated timing.
#pragma once

#include <cstddef>
#include <memory>

#include "dacc/protocol.hpp"
#include "faults/fault_plan.hpp"
#include "gpusim/device.hpp"
#include "maui/scheduler.hpp"
#include "torque/batch_config.hpp"
#include "vnet/network_model.hpp"

namespace dac::core {

struct DacClusterConfig {
  std::size_t compute_nodes = 3;
  std::size_t accel_nodes = 4;

  vnet::NetworkModel network;
  torque::BatchTiming timing;

  maui::Policy policy = maui::Policy::kFifo;
  maui::PriorityWeights weights;
  bool dynamic_first = true;  // the paper's dyn-priority mechanism
  // < 1.0 enables the fairshare cap on dynamic allocations (future work).
  double dyn_owner_pool_cap = 1.0;
  // Elastic negotiation (src/elastic, docs/ELASTIC.md): a utilization policy
  // lets the scheduler grow/shrink running jobs. Null keeps elasticity off —
  // the seed scheduler behaviour.
  std::shared_ptr<elastic::Policy> elastic_policy;

  gpusim::DeviceConfig device;
  dacc::TransferOptions transfer;
  // Reply-wait bound for job programs' accelerator calls (AcSession
  // call_timeout). Zero keeps the historical block-forever behavior; set it
  // so jobs survive an accelerator dying mid-call (AcError(kNodeLost)).
  std::chrono::milliseconds ac_call_timeout{0};
  // Mother superiors kill jobs exceeding their requested walltime.
  bool enforce_walltime = true;

  // ---- high-throughput scheduling (docs/SCHEDULING.md) ------------------
  // Cycles between forced full kGetSched fetches; the ones between fetch
  // deltas (drift backstop). 1 = every cycle fetches in full (ablation).
  int sched_full_rescan_every = 16;
  // One kDynDecide batch per cycle, shipped without waiting for the reply;
  // off = one kDynDecide per item, each awaited (the paper's serial shape).
  bool sched_batched_dyn = true;

  // Deterministic failure injection (docs/FAULTS.md): when set, the plan is
  // installed as the fabric's fault injector and wired into the server's
  // metrics registry before any daemon boots. fail_node()/recover_node()
  // then also drive plan->crash_node()/restart_node(). When null, the
  // environment variable DACSCHED_FAULT_SEED installs a delay-only
  // background plan instead (see DacCluster ctor).
  std::shared_ptr<faults::FaultPlan> fault_plan;

  [[nodiscard]] std::size_t total_nodes() const {
    return 1 + compute_nodes + accel_nodes;
  }

  // Test profile: microsecond-scale costs, instant kernels.
  static DacClusterConfig fast() {
    DacClusterConfig c;
    c.network.latency = std::chrono::microseconds(50);
    c.network.loopback_latency = std::chrono::microseconds(5);
    c.network.bytes_per_second = 5e9;
    c.timing = torque::BatchTiming::fast();
    c.device.time_scale = 0.0;
    return c;
  }

  // The paper's testbed shape: 8 nodes — 1 head, and 7 usable as compute or
  // accelerator nodes (here split 1 CN + 6 ACs as in Figure 7's runs);
  // calibrated timing reproducing the sub-second allocation ranges.
  static DacClusterConfig paper_testbed(std::size_t compute = 1,
                                        std::size_t accel = 6) {
    DacClusterConfig c;
    c.compute_nodes = compute;
    c.accel_nodes = accel;
    c.network.latency = std::chrono::microseconds(200);
    c.network.loopback_latency = std::chrono::microseconds(20);
    c.network.bytes_per_second = 1.25e9;  // ~10 GbE
    c.timing = torque::BatchTiming::calibrated();
    return c;
  }
};

}  // namespace dac::core
