// The prototypical Accelerator Resource Manager of paper §II: a standalone
// allocator service that predates the batch-system integration. It maintains
// the pool of network-attached accelerators and serves allocation and
// release requests from compute nodes directly — no queue, no scheduler, no
// job association. Kept alongside the integrated batch system both to show
// the design evolution and for the latency ablation (standalone ARM vs.
// batch-integrated pbs_dynget).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svc/caller.hpp"
#include "svc/metrics.hpp"
#include "util/bytes.hpp"
#include "vnet/node.hpp"

namespace dac::arm {

// vnet message types of the ARM protocol. The ARM speaks the shared svc
// request/reply envelope (so it gets retries, dedup, and metrics for free);
// these codes live outside the torque MsgType space.
inline constexpr std::uint32_t kArmAlloc = 0x41524D01;    // count -> set
inline constexpr std::uint32_t kArmFree = 0x41524D02;     // set id
inline constexpr std::uint32_t kArmStatus = 0x41524D03;   // -> pool state
inline constexpr std::uint32_t kArmReclaim = 0x41524D04;  // count -> set ids
inline constexpr std::uint32_t kArmReply = 0x41524D10;    // legacy reply code

struct ArmAllocation {
  bool granted = false;
  std::uint64_t set_id = 0;
  std::vector<vnet::NodeId> nodes;
  std::vector<std::string> hostnames;
};

struct ArmPoolStatus {
  int total = 0;
  int free = 0;
  int sets_outstanding = 0;
};

// The ARM service. Construct with the accelerator pool, then run() inside a
// process; the address is available immediately after construction.
class PrototypeArm {
 public:
  struct PoolEntry {
    vnet::NodeId node;
    std::string hostname;
  };

  PrototypeArm(vnet::Node& node, std::vector<PoolEntry> pool);

  PrototypeArm(const PrototypeArm&) = delete;
  PrototypeArm& operator=(const PrototypeArm&) = delete;

  [[nodiscard]] const vnet::Address& address() const {
    return endpoint_->address();
  }

  void run(vnet::Process& proc);

  [[nodiscard]] const svc::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  struct Slot {
    PoolEntry entry;
    std::uint64_t held_by = 0;  // set id, 0 = free
  };

  vnet::Node& node_;
  std::unique_ptr<vnet::Endpoint> endpoint_;
  std::vector<Slot> pool_;
  std::map<std::uint64_t, std::vector<std::size_t>> sets_;  // id -> slot idx
  std::uint64_t next_set_ = 1;
  svc::MetricsRegistry metrics_;
};

// Client side: allocation/release calls a compute node issues.
class ArmClient {
 public:
  ArmClient(vnet::Node& node, vnet::Address arm);

  // Subject to availability; a rejection returns granted == false (the ARM,
  // like the batch system, never queues dynamic requests).
  ArmAllocation alloc(int count);
  void free_set(std::uint64_t set_id);
  ArmPoolStatus status();
  // Forcibly revokes whole sets (newest first) until at least `count`
  // accelerators are back in the pool; returns the revoked set ids. The
  // standalone ARM has no way to ask the holder — this is the blunt
  // counterpart of the batch system's negotiated elastic shrink
  // (docs/ELASTIC.md), kept for the ablation contrast.
  std::vector<std::uint64_t> reclaim(int count);

 private:
  util::Bytes call(std::uint32_t type, util::Bytes body);

  svc::Caller caller_;
  vnet::Address arm_;
};

}  // namespace dac::arm
