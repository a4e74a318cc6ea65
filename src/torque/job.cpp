#include "torque/job.hpp"

#include <algorithm>

namespace dac::torque {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "Q";
    case JobState::kDynQueued: return "DQ";
    case JobState::kRunning: return "R";
    case JobState::kExiting: return "E";
    case JobState::kComplete: return "C";
    case JobState::kCancelled: return "X";
  }
  return "?";
}

void RetiredJobs::add(const JobInfo& info) {
  const auto slot = info.id % capacity_;
  const auto c = slot / kChunk;
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  auto& chunk = chunks_[c];
  if (chunk.empty()) chunk.resize(std::min(kChunk, capacity_));
  auto& t = chunk[slot % kChunk];
  if (t.id < info.id) t = Tombstone{info.id, info.state, info.exit_status};
}

std::optional<JobInfo> RetiredJobs::find(JobId id) const {
  const auto slot = id % capacity_;
  const auto c = slot / kChunk;
  if (id == kInvalidJob || c >= chunks_.size() || chunks_[c].empty() ||
      chunks_[c][slot % kChunk].id != id) {
    return std::nullopt;
  }
  return info_of(chunks_[c][slot % kChunk]);
}

std::vector<JobInfo> RetiredJobs::list() const {
  std::vector<JobInfo> out;
  for (const auto& chunk : chunks_) {
    for (const auto& t : chunk) {
      if (t.id != kInvalidJob) out.push_back(info_of(t));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JobInfo& a, const JobInfo& b) { return a.id < b.id; });
  return out;
}

JobInfo RetiredJobs::info_of(const Tombstone& t) {
  JobInfo info;
  info.id = t.id;
  info.state = t.state;
  info.exit_status = t.exit_status;
  return info;
}

void put_resource_request(util::ByteWriter& w, const ResourceRequest& r) {
  w.put<std::int32_t>(r.nodes);
  w.put<std::int32_t>(r.ppn);
  w.put<std::int32_t>(r.acpn);
  w.put<std::int64_t>(r.walltime.count());
}

ResourceRequest get_resource_request(util::ByteReader& r) {
  ResourceRequest out;
  out.nodes = r.get<std::int32_t>();
  out.ppn = r.get<std::int32_t>();
  out.acpn = r.get<std::int32_t>();
  out.walltime = std::chrono::milliseconds(r.get<std::int64_t>());
  return out;
}

void put_job_spec(util::ByteWriter& w, const JobSpec& s) {
  w.put_string(s.name);
  w.put_string(s.owner);
  w.put_string(s.program);
  w.put_bytes(s.program_args);
  put_resource_request(w, s.resources);
  w.put<std::int32_t>(s.priority);
}

JobSpec get_job_spec(util::ByteReader& r) {
  JobSpec out;
  out.name = r.get_string();
  out.owner = r.get_string();
  out.program = r.get_string();
  out.program_args = r.get_bytes();
  out.resources = get_resource_request(r);
  out.priority = r.get<std::int32_t>();
  return out;
}

void put_job_info(util::ByteWriter& w, const JobInfo& j) {
  w.put<std::uint64_t>(j.id);
  put_job_spec(w, j.spec);
  w.put_enum(j.state);
  w.put_string_vector(j.compute_hosts);
  w.put_string_vector(j.accel_hosts);
  w.put_string_vector(j.dyn_accel_hosts);
  w.put<double>(j.submit_time);
  w.put<double>(j.start_time);
  w.put<double>(j.end_time);
  w.put<std::int32_t>(j.exit_status);
  w.put<std::int32_t>(j.requeues);
  w.put<std::uint64_t>(j.trace_id);
  w.put<std::uint64_t>(j.origin_span);
}

JobInfo get_job_info(util::ByteReader& r) {
  JobInfo out;
  out.id = r.get<std::uint64_t>();
  out.spec = get_job_spec(r);
  out.state = r.get_enum<JobState>();
  out.compute_hosts = r.get_string_vector();
  out.accel_hosts = r.get_string_vector();
  out.dyn_accel_hosts = r.get_string_vector();
  out.submit_time = r.get<double>();
  out.start_time = r.get<double>();
  out.end_time = r.get<double>();
  out.exit_status = r.get<std::int32_t>();
  out.requeues = r.get<std::int32_t>();
  out.trace_id = r.get<std::uint64_t>();
  out.origin_span = r.get<std::uint64_t>();
  return out;
}

}  // namespace dac::torque
