#include "torque/node_db.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace dac::torque {

const char* liveness_name(Liveness l) {
  switch (l) {
    case Liveness::kUp: return "up";
    case Liveness::kSuspect: return "suspect";
    case Liveness::kDown: return "down";
  }
  return "?";
}

void put_node_status(util::ByteWriter& w, const NodeStatus& n) {
  w.put_string(n.hostname);
  w.put<std::int32_t>(n.node_id);
  w.put_enum(n.kind);
  w.put<std::int32_t>(n.np);
  w.put<std::int32_t>(n.used);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(n.jobs.size()));
  for (const auto j : n.jobs) w.put<std::uint64_t>(j);
  w.put<std::int32_t>(n.mom_addr.node);
  w.put<std::int32_t>(n.mom_addr.port);
  w.put_bool(n.up);
  w.put_enum(n.liveness);
}

NodeStatus get_node_status(util::ByteReader& r) {
  NodeStatus n;
  n.hostname = r.get_string();
  n.node_id = r.get<std::int32_t>();
  n.kind = r.get_enum<NodeKind>();
  n.np = r.get<std::int32_t>();
  n.used = r.get<std::int32_t>();
  const auto count = r.get<std::uint32_t>();
  n.jobs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    n.jobs.push_back(r.get<std::uint64_t>());
  }
  n.mom_addr.node = r.get<std::int32_t>();
  n.mom_addr.port = r.get<std::int32_t>();
  n.up = r.get_bool();
  n.liveness = r.get_enum<Liveness>();
  return n;
}

void NodeDb::upsert(NodeStatus status) {
  dirty_.insert(status.hostname);
  auto it = nodes_.find(status.hostname);
  if (it == nodes_.end()) {
    Entry e;
    e.status = std::move(status);
    nodes_.emplace(e.status.hostname, std::move(e));
    return;
  }
  // Refresh identity fields but keep current assignments. A re-registering
  // mom also brings the node back up.
  it->second.status.node_id = status.node_id;
  it->second.status.kind = status.kind;
  it->second.status.np = status.np;
  it->second.status.mom_addr = status.mom_addr;
  it->second.status.up = true;
  it->second.status.liveness = Liveness::kUp;
}

std::optional<NodeStatus> NodeDb::lookup(const std::string& hostname) const {
  auto it = nodes_.find(hostname);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.status;
}

std::vector<NodeStatus> NodeDb::snapshot() const {
  std::vector<NodeStatus> out;
  out.reserve(nodes_.size());
  for (const auto& [name, e] : nodes_) out.push_back(e.status);
  return out;
}

bool NodeDb::assign(const std::string& hostname, JobId job, int slots) {
  auto it = nodes_.find(hostname);
  if (it == nodes_.end()) return false;
  auto& e = it->second;
  if (e.status.free_slots() < slots) return false;
  e.status.used += slots;
  DAC_CHECK(e.status.used <= e.status.np,
            "node {} over-assigned: used={} np={} (job {} asked for {})",
            hostname, e.status.used, e.status.np, job, slots);
  e.held[job] += slots;
  if (std::find(e.status.jobs.begin(), e.status.jobs.end(), job) ==
      e.status.jobs.end()) {
    e.status.jobs.push_back(job);
  }
  dirty_.insert(hostname);
  // Instantaneous trace event; the property tests replay these to check
  // slot conservation and overlap invariants.
  trace::event("alloc.assign", {{"host", hostname},
                                {"job", std::to_string(job)},
                                {"slots", std::to_string(slots)}});
  return true;
}

void NodeDb::release(const std::string& hostname, JobId job) {
  auto it = nodes_.find(hostname);
  if (it == nodes_.end()) return;
  auto& e = it->second;
  auto held = e.held.find(job);
  if (held == e.held.end()) return;
  const int slots = held->second;
  e.status.used -= slots;
  DAC_CHECK(e.status.used >= 0,
            "node {} slot count went negative ({}) releasing job {}", hostname,
            e.status.used, job);
  e.held.erase(held);
  std::erase(e.status.jobs, job);
  dirty_.insert(hostname);
  trace::event("alloc.release", {{"host", hostname},
                                 {"job", std::to_string(job)},
                                 {"slots", std::to_string(slots)}});
}

void NodeDb::release_all(JobId job) {
  for (auto& [name, e] : nodes_) {
    auto held = e.held.find(job);
    if (held == e.held.end()) continue;
    const int slots = held->second;
    e.status.used -= slots;
    DAC_CHECK(e.status.used >= 0,
              "node {} slot count went negative ({}) releasing job {}", name,
              e.status.used, job);
    e.held.erase(held);
    std::erase(e.status.jobs, job);
    dirty_.insert(name);
    trace::event("alloc.release", {{"host", name},
                                   {"job", std::to_string(job)},
                                   {"slots", std::to_string(slots)}});
  }
}

std::optional<vnet::Address> NodeDb::mom_of(const std::string& hostname) const {
  auto it = nodes_.find(hostname);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.status.mom_addr;
}

bool NodeDb::heartbeat(const std::string& hostname, double now) {
  auto it = nodes_.find(hostname);
  if (it == nodes_.end()) return false;
  it->second.last_seen = now;
  const bool revived = it->second.status.liveness != Liveness::kUp;
  it->second.status.up = true;
  it->second.status.liveness = Liveness::kUp;
  // A bare timestamp refresh is not scheduler-visible; only a revival is.
  if (revived) dirty_.insert(hostname);
  return revived;
}

NodeDb::LivenessChanges NodeDb::refresh_liveness(double now,
                                                 double suspect_after,
                                                 double down_after) {
  LivenessChanges changes;
  for (auto& [name, e] : nodes_) {
    const double silence = now - e.last_seen;
    Liveness next = e.status.liveness;
    if (silence >= down_after) {
      next = Liveness::kDown;
    } else if (silence >= suspect_after) {
      // Never promote: a down node stays down until a real heartbeat.
      if (e.status.liveness == Liveness::kUp) next = Liveness::kSuspect;
    }
    if (next == e.status.liveness) continue;
    e.status.liveness = next;
    e.status.up = next == Liveness::kUp;
    dirty_.insert(name);
    if (next == Liveness::kSuspect) {
      changes.went_suspect.push_back(name);
    } else if (next == Liveness::kDown) {
      changes.went_down.push_back(name);
    }
  }
  return changes;
}

std::vector<std::string> NodeDb::drain_dirty() {
  std::vector<std::string> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

}  // namespace dac::torque
