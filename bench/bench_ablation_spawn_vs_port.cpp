// Ablation A5: communicator establishment via ports
// (MPI_Open_port/Comm_connect/Comm_accept — the static path) vs.
// MPI_Comm_spawn + merge (the dynamic path). The paper argues spawn is the
// easier mechanism for dynamic additions (§III-D); this measures the raw
// protocol cost of both against the same daemon count, with daemon startup
// cost zeroed so only the MPI machinery is compared.
#include <cstdio>

#include "bench/harness.hpp"
#include "dacc/daemon.hpp"
#include "dacc/protocol.hpp"
#include "minimpi/proc.hpp"
#include "util/clock.hpp"
#include "vnet/cluster.hpp"

using namespace dac;

int main() {
  vnet::ClusterTopology topo;
  topo.node_count = 8;
  topo.network.latency = std::chrono::microseconds(200);
  topo.process_start_delay = std::chrono::microseconds(0);
  vnet::Cluster cluster(topo);
  minimpi::Runtime runtime(cluster);
  dacc::DeviceManager devices;
  dacc::register_daemon_executables(runtime, devices);

  const int n_trials = bench::trials();
  struct Result {
    std::vector<double> port_s;   // per y
    std::vector<double> spawn_s;  // per y
  };
  bench::Slot<Result> slot;
  int trial_counter = 0;

  runtime.register_executable(
      "bench_cn", [&](minimpi::Proc& p, const util::Bytes&) {
        Result result;
        for (int y = 1; y <= 6; ++y) {
          std::vector<vnet::NodeId> placement;
          for (int i = 0; i < y; ++i) placement.push_back(1 + i);

          // Port path: daemons publish + accept, compute node connects.
          const std::string port =
              "a5-" + std::to_string(trial_counter) + "-" + std::to_string(y);
          util::ByteWriter args;
          args.put_string(port);
          args.put<std::uint64_t>(0);
          auto handle = runtime.launch_world(dacc::kStaticDaemonExe,
                                             placement,
                                             std::move(args).take());
          util::Stopwatch w;
          minimpi::Comm inter = p.comm_connect(port, p.self(), 0);
          minimpi::Comm merged = p.intercomm_merge(inter, false);
          result.port_s.push_back(w.lap_seconds());
          for (int r = 1; r < merged.size(); ++r) {
            p.send(merged, r, dacc::kCtlShutdown, {});
          }
          p.barrier(merged);
          handle.join();
          runtime.close_port(port);

          // Spawn path: MPI_Comm_spawn + merge.
          minimpi::WorldHandle children;
          w.reset();
          minimpi::Comm inter2 =
              p.comm_spawn(p.self(), 0, dacc::kSpawnedDaemonExe, {},
                           placement, &children);
          minimpi::Comm merged2 = p.intercomm_merge(inter2, false);
          result.spawn_s.push_back(w.lap_seconds());
          for (int r = 1; r < merged2.size(); ++r) {
            p.send(merged2, r, dacc::kCtlShutdown, {});
          }
          p.barrier(merged2);
          children.join();
        }
        slot.put(result);
      });

  std::vector<util::Samples> port(7);
  std::vector<util::Samples> spawn(7);
  for (int t = 0; t < n_trials; ++t) {
    trial_counter = t;
    auto handle = runtime.launch_world("bench_cn", {7}, {});
    auto r = slot.take(std::chrono::milliseconds(120'000));
    handle.join();
    if (!r) {
      std::fprintf(stderr, "trial failed\n");
      return 1;
    }
    for (int y = 1; y <= 6; ++y) {
      port[static_cast<std::size_t>(y)].add(
          r->port_s[static_cast<std::size_t>(y - 1)]);
      spawn[static_cast<std::size_t>(y)].add(
          r->spawn_s[static_cast<std::size_t>(y - 1)]);
    }
  }

  bench::print_title(
      "Ablation A5: port/connect/accept vs. comm_spawn/merge",
      "communicator establishment with y daemons, startup cost excluded; "
      "mean over " + std::to_string(n_trials) + " trials");
  bench::print_columns({"daemons", "port-path[s]", "spawn-path[s]"});
  for (int y = 1; y <= 6; ++y) {
    bench::print_row({std::to_string(y),
                      bench::cell(port[static_cast<std::size_t>(y)].mean(),
                                  port[static_cast<std::size_t>(y)].stddev()),
                      bench::cell(spawn[static_cast<std::size_t>(y)].mean(),
                                  spawn[static_cast<std::size_t>(y)].stddev())});
  }
  std::printf(
      "\nExpected shape: both are a few round trips; spawn additionally"
      " waits for child INIT_DONE messages but needs no published port —"
      " comparable costs, which is why the paper picks spawn for its"
      " simpler communicator handling.\n");
  return 0;
}
