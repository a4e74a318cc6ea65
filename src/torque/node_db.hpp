// The server's node database: every mom registers its host here, and the
// server tracks which jobs hold slots on which hosts. Accelerator nodes are
// exclusive (one job at a time); compute nodes have ppn slots.
//
// A plain map keyed by hostname, so every listing comes out in hostname
// order. It has no lock of its own: the pbs_server guards it with its state
// lock, like the rest of the server's tables.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "torque/job.hpp"
#include "util/bytes.hpp"
#include "vnet/message.hpp"

namespace dac::torque {

enum class NodeKind : std::uint8_t { kCompute = 0, kAccelerator = 1 };

// Failure-detector state. A node is kSuspect after `suspect_after` seconds
// without a heartbeat (the scheduler stops placing work there, nothing is
// reclaimed yet) and kDown after `down_after` seconds (jobs are requeued or
// failed, AC slots reclaimed). One fresh heartbeat restores kUp from either
// state, so a flapping link degrades placement but never kills a job.
enum class Liveness : std::uint8_t { kUp = 0, kSuspect = 1, kDown = 2 };

const char* liveness_name(Liveness l);

struct NodeStatus {
  std::string hostname;
  vnet::NodeId node_id = vnet::kInvalidNode;
  NodeKind kind = NodeKind::kCompute;
  int np = 1;    // total slots (cores for compute; 1 for an accelerator)
  int used = 0;  // slots currently assigned
  std::vector<JobId> jobs;  // jobs holding slots here
  vnet::Address mom_addr;
  // Invariant: up == (liveness == kUp). The bool predates the tri-state and
  // every placement check keys off it, so "suspect" already excludes a node
  // from scheduling without those callers knowing about Liveness.
  bool up = true;
  Liveness liveness = Liveness::kUp;

  [[nodiscard]] int free_slots() const { return np - used; }
};

void put_node_status(util::ByteWriter& w, const NodeStatus& n);
NodeStatus get_node_status(util::ByteReader& r);

class NodeDb {
 public:
  NodeDb() = default;

  NodeDb(const NodeDb&) = delete;
  NodeDb& operator=(const NodeDb&) = delete;

  // Adds or refreshes a node record (mom registration).
  void upsert(NodeStatus status);

  // Point query; returns a copy.
  [[nodiscard]] std::optional<NodeStatus> lookup(
      const std::string& hostname) const;
  // Whole-DB copy, sorted by hostname.
  [[nodiscard]] std::vector<NodeStatus> snapshot() const;
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  // Assigns `slots` slots on `hostname` to `job`; false if unknown host or
  // not enough free slots.
  bool assign(const std::string& hostname, JobId job, int slots);
  // Releases all slots `job` holds on `hostname`.
  void release(const std::string& hostname, JobId job);
  // Releases everything `job` holds anywhere, host by host in hostname order.
  void release_all(JobId job);

  [[nodiscard]] std::optional<vnet::Address> mom_of(
      const std::string& hostname) const;

  // ---- liveness (fault-tolerance extension) ----------------------------
  // Records a heartbeat for `hostname` at time `now` (server seconds);
  // returns true if this heartbeat brought a suspect/down node back up.
  bool heartbeat(const std::string& hostname, double now);

  struct LivenessChanges {
    std::vector<std::string> went_suspect;
    std::vector<std::string> went_down;  // includes suspect -> down
  };
  // Advances the failure detector: last heartbeat older than
  // `suspect_after` seconds => kSuspect, older than `down_after` =>
  // kDown. Returns only the transitions made by this call, in hostname
  // order; recovery to kUp happens in heartbeat(), not here — silence never
  // improves liveness.
  LivenessChanges refresh_liveness(double now, double suspect_after,
                                   double down_after);

  // ---- dirty tracking (incremental scheduler feed) ---------------------
  // Hostnames whose scheduler-visible status changed since the last drain
  // (registration, slot traffic, liveness transitions — not bare heartbeat
  // timestamps). Returned sorted; the dirty set is cleared.
  [[nodiscard]] std::vector<std::string> drain_dirty();

 private:
  struct Entry {
    NodeStatus status;
    std::map<JobId, int> held;  // job -> slots held
    double last_seen = 0.0;     // server seconds of the last heartbeat
  };

  std::map<std::string, Entry> nodes_;
  std::set<std::string> dirty_;
};

}  // namespace dac::torque
