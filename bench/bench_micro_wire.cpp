// Microbenchmarks of the wire layer (google-benchmark): byte-buffer
// serialization, the rpc envelope, and the batch system's larger payloads
// (job info, the scheduler's GET_SCHED reply). These bound the per-message
// CPU costs under the protocol latencies measured elsewhere.
#include <benchmark/benchmark.h>

#include "torque/job.hpp"
#include "torque/sched_feed.hpp"
#include "util/bytes.hpp"

namespace {

using namespace dac;

void BM_ScalarRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    util::ByteWriter w;
    for (int i = 0; i < 16; ++i) w.put<std::uint64_t>(i);
    util::ByteReader r(w.bytes());
    std::uint64_t sum = 0;
    for (int i = 0; i < 16; ++i) sum += r.get<std::uint64_t>();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ScalarRoundTrip);

void BM_StringVector(benchmark::State& state) {
  std::vector<std::string> hosts;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    hosts.push_back("node" + std::to_string(i));
  }
  for (auto _ : state) {
    util::ByteWriter w;
    w.put_string_vector(hosts);
    util::ByteReader r(w.bytes());
    auto out = r.get_string_vector();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StringVector)->Arg(8)->Arg(64);

void BM_BulkPayload(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::ByteWriter w;
    w.put_bytes(data);
    util::ByteReader r(w.bytes());
    auto out = r.get_bytes();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BulkPayload)->Arg(4096)->Arg(1 << 20);

torque::JobInfo sample_job() {
  torque::JobInfo j;
  j.id = 42;
  j.spec.name = "simulation-run-17";
  j.spec.owner = "alice";
  j.spec.program = "app";
  j.spec.resources = {4, 8, 2, std::chrono::milliseconds(3'600'000)};
  j.state = torque::JobState::kRunning;
  j.compute_hosts = {"cn0", "cn1", "cn2", "cn3"};
  j.accel_hosts = {"ac0", "ac1", "ac2", "ac3", "ac4", "ac5", "ac6", "ac7"};
  j.dyn_accel_hosts = {"ac8", "ac9"};
  return j;
}

void BM_JobInfoRoundTrip(benchmark::State& state) {
  const auto job = sample_job();
  for (auto _ : state) {
    util::ByteWriter w;
    torque::put_job_info(w, job);
    util::ByteReader r(w.bytes());
    auto out = torque::get_job_info(r);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JobInfoRoundTrip);

// A GET_SCHED reply carrying range(0) job records, the way a full fetch (or
// a delta touching that many jobs) ships them.
void BM_SchedDelta(benchmark::State& state) {
  torque::SchedDelta delta;
  delta.epoch = 7;
  delta.now = 123.0;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    auto j = sample_job();
    j.id = static_cast<torque::JobId>(i + 1);
    delta.jobs.push_back(std::move(j));
  }
  delta.dyn.push_back({1, 1, 2, 2, torque::NodeKind::kAccelerator, 1.0});
  for (auto _ : state) {
    util::ByteWriter w;
    torque::put_sched_delta(w, delta);
    util::ByteReader r(w.bytes());
    auto out = torque::get_sched_delta(r);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedDelta)->Arg(20)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
