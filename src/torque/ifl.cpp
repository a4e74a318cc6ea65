#include "torque/ifl.hpp"

#include "torque/rpc.hpp"

namespace dac::torque {

Ifl::Ifl(vnet::Node& node, vnet::Address server)
    : caller_(node, server), server_(server) {}

Ifl::Ifl(vnet::Process& proc, vnet::Address server)
    : caller_(proc, server), server_(server) {}

util::Bytes Ifl::call(MsgType type, util::Bytes body,
                      std::chrono::milliseconds timeout) {
  // The server's ServiceLoop deduplicates retransmitted request-ids, so every
  // IFL operation (including submit and dynget) is safe to retry.
  return caller_.call(type, std::move(body), {.deadline = timeout});
}

JobId Ifl::submit(const JobSpec& spec) {
  util::ByteWriter w;
  put_job_spec(w, spec);
  auto reply = call(MsgType::kSubmit, std::move(w).take(),
                    rpc::kDefaultTimeout);
  util::ByteReader r(reply);
  return r.get<std::uint64_t>();
}

std::vector<JobInfo> Ifl::stat_jobs() {
  auto reply = call(MsgType::kStatJobs, {}, rpc::kDefaultTimeout);
  util::ByteReader r(reply);
  const auto n = r.get<std::uint32_t>();
  std::vector<JobInfo> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(get_job_info(r));
  return out;
}

std::optional<JobInfo> Ifl::stat_job(JobId id) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  auto reply =
      call(MsgType::kStatJob, std::move(w).take(), rpc::kDefaultTimeout);
  util::ByteReader r(reply);
  if (!r.get_bool()) return std::nullopt;
  return get_job_info(r);
}

std::vector<NodeStatus> Ifl::stat_nodes() {
  auto reply = call(MsgType::kStatNodes, {}, rpc::kDefaultTimeout);
  util::ByteReader r(reply);
  const auto n = r.get<std::uint32_t>();
  std::vector<NodeStatus> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(get_node_status(r));
  return out;
}

void Ifl::alter_job(JobId id, const Alter& alter) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put_bool(alter.priority.has_value());
  if (alter.priority) w.put<std::int32_t>(*alter.priority);
  w.put_bool(alter.walltime.has_value());
  if (alter.walltime) w.put<std::int64_t>(alter.walltime->count());
  w.put_bool(alter.name.has_value());
  if (alter.name) w.put_string(*alter.name);
  (void)call(MsgType::kAlterJob, std::move(w).take(), rpc::kDefaultTimeout);
}

void Ifl::delete_job(JobId id) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  (void)call(MsgType::kDeleteJob, std::move(w).take(), rpc::kDefaultTimeout);
}

DynGetReply Ifl::dynget(JobId id, int count, int min_count, NodeKind kind,
                        std::chrono::milliseconds timeout) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put<std::int32_t>(count);
  w.put<std::int32_t>(min_count);
  w.put_enum(kind);
  auto reply = call(MsgType::kDynGet, std::move(w).take(), timeout);
  util::ByteReader r(reply);
  return get_dynget_reply(r);
}

void Ifl::dynfree(JobId id, std::uint64_t client_id) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put<std::uint64_t>(client_id);
  (void)call(MsgType::kDynFree, std::move(w).take(), rpc::kDefaultTimeout);
}

std::optional<JobInfo> Ifl::wait_for_state(JobId id, JobState state,
                                           std::chrono::milliseconds timeout) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put_enum(state);
  w.put<std::int64_t>(timeout.count());
  // The server answers by `timeout` itself; the slack only covers transit.
  auto reply = call(MsgType::kWaitJob, std::move(w).take(),
                    timeout + svc::deadlines::kHeldReplySlack);
  util::ByteReader r(reply);
  if (!r.get_bool()) return std::nullopt;
  return get_job_info(r);
}

}  // namespace dac::torque
