// Serialization round trips for every wire structure of the batch system.
#include "torque/job.hpp"

#include <gtest/gtest.h>

#include "torque/launch_info.hpp"
#include "torque/node_db.hpp"
#include "torque/protocol.hpp"
#include "torque/server.hpp"

namespace dac::torque {
namespace {

JobSpec sample_spec() {
  JobSpec s;
  s.name = "myjob";
  s.owner = "alice";
  s.program = "prog";
  util::ByteWriter w;
  w.put<std::int32_t>(99);
  s.program_args = std::move(w).take();
  s.resources = {4, 8, 2, std::chrono::milliseconds(120'000)};
  s.priority = 3;
  return s;
}

TEST(JobSerialization, ResourceRequestRoundTrip) {
  ResourceRequest in{3, 16, 2, std::chrono::milliseconds(5000)};
  util::ByteWriter w;
  put_resource_request(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_resource_request(r);
  EXPECT_EQ(out.nodes, 3);
  EXPECT_EQ(out.ppn, 16);
  EXPECT_EQ(out.acpn, 2);
  EXPECT_EQ(out.walltime.count(), 5000);
  EXPECT_EQ(out.total_accelerators(), 6);
}

TEST(JobSerialization, JobSpecRoundTrip) {
  const auto in = sample_spec();
  util::ByteWriter w;
  put_job_spec(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_job_spec(r);
  EXPECT_EQ(out.name, "myjob");
  EXPECT_EQ(out.owner, "alice");
  EXPECT_EQ(out.program, "prog");
  EXPECT_EQ(out.program_args, in.program_args);
  EXPECT_EQ(out.resources.acpn, 2);
  EXPECT_EQ(out.priority, 3);
}

TEST(JobSerialization, JobInfoRoundTrip) {
  JobInfo in;
  in.id = 7;
  in.spec = sample_spec();
  in.state = JobState::kDynQueued;
  in.compute_hosts = {"cn0", "cn1"};
  in.accel_hosts = {"ac0"};
  in.dyn_accel_hosts = {"ac1", "ac2"};
  in.submit_time = 1.25;
  in.start_time = 2.5;
  in.end_time = -1.0;
  util::ByteWriter w;
  put_job_info(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_job_info(r);
  EXPECT_EQ(out.id, 7u);
  EXPECT_EQ(out.state, JobState::kDynQueued);
  EXPECT_EQ(out.compute_hosts, in.compute_hosts);
  EXPECT_EQ(out.dyn_accel_hosts, in.dyn_accel_hosts);
  EXPECT_DOUBLE_EQ(out.submit_time, 1.25);
  EXPECT_DOUBLE_EQ(out.end_time, -1.0);
}

TEST(JobSerialization, NodeStatusRoundTrip) {
  NodeStatus in;
  in.hostname = "ac3";
  in.node_id = 5;
  in.kind = NodeKind::kAccelerator;
  in.np = 1;
  in.used = 1;
  in.jobs = {11, 22};
  in.mom_addr = {5, 9};
  util::ByteWriter w;
  put_node_status(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_node_status(r);
  EXPECT_EQ(out.hostname, "ac3");
  EXPECT_EQ(out.kind, NodeKind::kAccelerator);
  EXPECT_EQ(out.jobs, in.jobs);
  EXPECT_EQ(out.mom_addr, in.mom_addr);
  EXPECT_EQ(out.free_slots(), 0);
}

TEST(JobSerialization, DynGetReplyRoundTrip) {
  DynGetReply in;
  in.granted = true;
  in.client_id = 42;
  in.hosts = {"ac0", "ac5"};
  in.host_nodes = {2, 7};
  in.queue_wait_seconds = 0.125;
  in.service_seconds = 0.5;
  util::ByteWriter w;
  put_dynget_reply(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_dynget_reply(r);
  EXPECT_TRUE(out.granted);
  EXPECT_EQ(out.client_id, 42u);
  EXPECT_EQ(out.hosts, in.hosts);
  EXPECT_EQ(out.host_nodes, in.host_nodes);
  EXPECT_DOUBLE_EQ(out.queue_wait_seconds, 0.125);
}

TEST(JobSerialization, HostRefsRoundTrip) {
  std::vector<HostRef> in{{"cn0", 1, {1, 2}}, {"ac0", 4, {4, 0}}};
  util::ByteWriter w;
  put_host_refs(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_host_refs(r);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].hostname, "cn0");
  EXPECT_EQ(out[1].node, 4);
  EXPECT_EQ(out[1].mom, (vnet::Address{4, 0}));
}

TEST(JobSerialization, QueueSnapshotRoundTrip) {
  QueueSnapshot in;
  in.now = 12.5;
  JobInfo j;
  j.id = 1;
  j.spec = sample_spec();
  in.jobs.push_back(j);
  in.dyn.push_back(
      DynQueueEntry{9, 1, 3, 2, NodeKind::kCompute, 4.5});
  util::ByteWriter w;
  put_queue_snapshot(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_queue_snapshot(r);
  EXPECT_DOUBLE_EQ(out.now, 12.5);
  ASSERT_EQ(out.jobs.size(), 1u);
  ASSERT_EQ(out.dyn.size(), 1u);
  EXPECT_EQ(out.dyn[0].dyn_id, 9u);
  EXPECT_EQ(out.dyn[0].count, 3);
  EXPECT_EQ(out.dyn[0].min_count, 2);
  EXPECT_EQ(out.dyn[0].kind, NodeKind::kCompute);
}

TEST(JobSerialization, LaunchInfoRoundTrip) {
  JobLaunchInfo in;
  in.job = 5;
  in.program = "app";
  in.nodes = 2;
  in.ppn = 4;
  in.acpn = 3;
  in.server = {0, 1};
  in.ms_mom = {1, 2};
  in.compute_hosts = {{"cn0", 1, {1, 0}}, {"cn1", 2, {2, 0}}};
  in.accel_hosts = {{"ac0", 3, {3, 0}}};
  util::ByteWriter w;
  put_launch_info(w, in);
  util::ByteReader r(w.bytes());
  const auto out = get_launch_info(r);
  EXPECT_EQ(out.job, 5u);
  EXPECT_EQ(out.program, "app");
  EXPECT_EQ(out.acpn, 3);
  EXPECT_EQ(out.server, (vnet::Address{0, 1}));
  ASSERT_EQ(out.compute_hosts.size(), 2u);
  EXPECT_EQ(out.compute_hosts[1].hostname, "cn1");
}

TEST(JobSerialization, StaticPortNames) {
  EXPECT_EQ(static_ac_port_name(12, 0), "acport-12-0");
  EXPECT_NE(static_ac_port_name(12, 0), static_ac_port_name(12, 1));
  EXPECT_NE(static_ac_port_name(12, 0), static_ac_port_name(13, 0));
}

TEST(JobSerialization, StateNames) {
  EXPECT_STREQ(job_state_name(JobState::kQueued), "Q");
  EXPECT_STREQ(job_state_name(JobState::kDynQueued), "DQ");
  EXPECT_STREQ(job_state_name(JobState::kComplete), "C");
}

JobInfo ended(JobId id, JobState state, int exit_status) {
  JobInfo info;
  info.id = id;
  info.state = state;
  info.exit_status = exit_status;
  info.compute_hosts = {"cn0"};
  info.start_time = 1.0;
  return info;
}

TEST(RetiredJobs, TombstoneKeepsIdStateAndExitStatusOnly) {
  RetiredJobs ring(4);
  ring.add(ended(3, JobState::kCancelled, kExitKilled));
  const auto t = ring.find(3);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->id, 3u);
  EXPECT_EQ(t->state, JobState::kCancelled);
  EXPECT_EQ(t->exit_status, kExitKilled);
  EXPECT_TRUE(t->compute_hosts.empty());
  EXPECT_LT(t->start_time, 0.0);
  EXPECT_FALSE(ring.find(2).has_value());
  EXPECT_FALSE(ring.find(kInvalidJob).has_value());
}

TEST(RetiredJobs, AnIdIsForgottenOnceTheRingMovesPastIt) {
  RetiredJobs ring(4);
  for (JobId id = 1; id <= 4; ++id) ring.add(ended(id, JobState::kComplete, 0));
  EXPECT_TRUE(ring.find(1).has_value());
  ring.add(ended(5, JobState::kComplete, 0));  // 5 takes 1's slot
  EXPECT_FALSE(ring.find(1).has_value());
  EXPECT_TRUE(ring.find(5).has_value());
  // An id that retires after a newer one took its slot is not kept.
  ring.add(ended(10, JobState::kComplete, 0));
  ring.add(ended(6, JobState::kComplete, 0));
  EXPECT_TRUE(ring.find(10).has_value());
  EXPECT_FALSE(ring.find(6).has_value());
}

TEST(RetiredJobs, ListsInIdOrder) {
  RetiredJobs ring(8);
  for (const JobId id : {7u, 2u, 9u, 4u}) {
    ring.add(ended(id, JobState::kComplete, 0));
  }
  std::vector<JobId> ids;
  for (const auto& t : ring.list()) ids.push_back(t.id);
  EXPECT_EQ(ids, (std::vector<JobId>{2, 4, 7, 9}));
}

}  // namespace
}  // namespace dac::torque
