#include "torque/sched_feed.hpp"

namespace dac::torque {

void put_dyn_queue_entry(util::ByteWriter& w, const DynQueueEntry& d) {
  w.put<std::uint64_t>(d.dyn_id);
  w.put<std::uint64_t>(d.job);
  w.put<std::int32_t>(d.count);
  w.put<std::int32_t>(d.min_count);
  w.put_enum(d.kind);
  w.put<double>(d.arrival);
  w.put<std::uint64_t>(d.trace_id);
  w.put<std::uint64_t>(d.origin_span);
}

DynQueueEntry get_dyn_queue_entry(util::ByteReader& r) {
  DynQueueEntry d;
  d.dyn_id = r.get<std::uint64_t>();
  d.job = r.get<std::uint64_t>();
  d.count = r.get<std::int32_t>();
  d.min_count = r.get<std::int32_t>();
  d.kind = r.get_enum<NodeKind>();
  d.arrival = r.get<double>();
  d.trace_id = r.get<std::uint64_t>();
  d.origin_span = r.get<std::uint64_t>();
  return d;
}

void put_sched_delta(util::ByteWriter& w, const SchedDelta& d) {
  w.put<std::uint64_t>(d.epoch);
  w.put_bool(d.full);
  w.put<double>(d.now);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(d.jobs.size()));
  for (const auto& j : d.jobs) put_job_info(w, j);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(d.nodes.size()));
  for (const auto& n : d.nodes) put_node_status(w, n);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(d.dyn.size()));
  for (const auto& e : d.dyn) put_dyn_queue_entry(w, e);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(d.elastic.size()));
  for (const auto& v : d.elastic) elastic::put_job_view(w, v);
}

SchedDelta get_sched_delta(util::ByteReader& r) {
  SchedDelta d;
  d.epoch = r.get<std::uint64_t>();
  d.full = r.get_bool();
  d.now = r.get<double>();
  const auto nj = r.get<std::uint32_t>();
  d.jobs.reserve(nj);
  for (std::uint32_t i = 0; i < nj; ++i) d.jobs.push_back(get_job_info(r));
  const auto nn = r.get<std::uint32_t>();
  d.nodes.reserve(nn);
  for (std::uint32_t i = 0; i < nn; ++i) {
    d.nodes.push_back(get_node_status(r));
  }
  const auto nd = r.get<std::uint32_t>();
  d.dyn.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) {
    d.dyn.push_back(get_dyn_queue_entry(r));
  }
  const auto ne = r.get<std::uint32_t>();
  d.elastic.reserve(ne);
  for (std::uint32_t i = 0; i < ne; ++i) {
    d.elastic.push_back(elastic::get_job_view(r));
  }
  return d;
}

void put_dyn_decisions(util::ByteWriter& w,
                       const std::vector<DynDecision>& ds) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(ds.size()));
  for (const auto& d : ds) {
    w.put<std::uint64_t>(d.id);
    w.put_enum(d.kind);
    w.put<std::uint64_t>(d.pickup_ns);
    w.put_string_vector(d.hosts);
    w.put<std::uint64_t>(d.trace_id);
    w.put<std::uint64_t>(d.span);
  }
}

std::vector<DynDecision> get_dyn_decisions(util::ByteReader& r) {
  const auto n = r.get<std::uint32_t>();
  std::vector<DynDecision> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DynDecision d;
    d.id = r.get<std::uint64_t>();
    d.kind = r.get_enum<DynDecision::Kind>();
    d.pickup_ns = r.get<std::uint64_t>();
    d.hosts = r.get_string_vector();
    d.trace_id = r.get<std::uint64_t>();
    d.span = r.get<std::uint64_t>();
    out.push_back(std::move(d));
  }
  return out;
}

void put_run_starts(util::ByteWriter& w, const std::vector<RunStart>& ss) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(ss.size()));
  for (const auto& s : ss) {
    w.put<std::uint64_t>(s.job);
    w.put_string_vector(s.compute);
    w.put_string_vector(s.accel);
    w.put<std::uint64_t>(s.trace_id);
    w.put<std::uint64_t>(s.span);
  }
}

std::vector<RunStart> get_run_starts(util::ByteReader& r) {
  const auto n = r.get<std::uint32_t>();
  std::vector<RunStart> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RunStart s;
    s.job = r.get<std::uint64_t>();
    s.compute = r.get_string_vector();
    s.accel = r.get_string_vector();
    s.trace_id = r.get<std::uint64_t>();
    s.span = r.get<std::uint64_t>();
    out.push_back(std::move(s));
  }
  return out;
}

DirtyTracker::Fetch DirtyTracker::begin_fetch(std::uint64_t client_epoch,
                                              bool force_full) {
  Fetch f;
  f.full = force_full || client_epoch != epoch_;
  if (!f.full) f.jobs.assign(dirty_.begin(), dirty_.end());
  dirty_.clear();
  f.epoch = ++epoch_;
  return f;
}

}  // namespace dac::torque
