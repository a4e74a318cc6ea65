// DAC offload stack tests at the dacc layer: back-end daemon + front-end
// computation API over raw mini-MPI (no batch system), covering both
// attachment paths and the wire protocol's error handling.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "dacc/daemon.hpp"
#include "dacc/frontend.hpp"
#include "dacc/protocol.hpp"
#include "harness/scenario.hpp"
#include "vnet/cluster.hpp"

namespace dac::dacc {
namespace {

using namespace std::chrono_literals;
using minimpi::Comm;
using minimpi::Proc;

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest()
      : cluster_([] {
          vnet::ClusterTopology t;
          t.node_count = 6;
          t.network.latency = std::chrono::microseconds(50);
          t.network.bytes_per_second = 5e9;
          t.process_start_delay = std::chrono::microseconds(0);
          return t;
        }()),
        runtime_(cluster_) {
    register_daemon_executables(runtime_, devices_);
  }

  // Runs `body` as a compute-node process attached to `n` static daemons.
  void with_daemons(int n, std::function<void(Proc&, Comm&)> body) {
    static std::atomic<int> counter{0};
    const auto port = "test-port-" + std::to_string(counter.fetch_add(1));
    std::vector<vnet::NodeId> placement;
    for (int i = 0; i < n; ++i) placement.push_back(1 + i);
    util::ByteWriter args;
    args.put_string(port);
    args.put<std::uint64_t>(1);
    auto daemons =
        runtime_.launch_world(kStaticDaemonExe, placement,
                              std::move(args).take());

    runtime_.register_executable(
        "test_cn", [&body, port](Proc& p, const util::Bytes&) {
          Comm inter = p.comm_connect(port, p.self(), 0);
          Comm merged = p.intercomm_merge(inter, false);
          body(p, merged);
          for (int r = 1; r < merged.size(); ++r) {
            p.send(merged, r, kCtlShutdown, {});
          }
          p.barrier(merged);
        });
    auto cn = runtime_.launch_world("test_cn", {5}, {});
    cn.join();
    daemons.join();
  }

  vnet::Cluster cluster_;
  minimpi::Runtime runtime_;
  DeviceManager devices_;
};

TEST_F(OffloadTest, AllocFreeRoundTrip) {
  with_daemons(1, [](Proc& p, Comm& c) {
    const auto ptr = frontend::mem_alloc(p, c, 1, 4096);
    frontend::mem_free(p, c, 1, ptr);
  });
}

TEST_F(OffloadTest, MemcpyRoundTripPipelined) {
  with_daemons(1, [](Proc& p, Comm& c) {
    std::vector<double> data(10'000);
    std::iota(data.begin(), data.end(), 0.0);
    const auto bytes = data.size() * sizeof(double);
    const auto ptr = frontend::mem_alloc(p, c, 1, bytes);
    TransferOptions opts;
    opts.chunk_bytes = 4096;  // force many chunks
    opts.pipelined = true;
    frontend::memcpy_h2d(p, c, 1, ptr,
                         std::as_bytes(std::span(data)), opts);
    auto back = frontend::memcpy_d2h(p, c, 1, ptr, bytes);
    ASSERT_EQ(back.size(), bytes);
    const auto* d = reinterpret_cast<const double*>(back.data());
    for (std::size_t i = 0; i < data.size(); i += 997) {
      EXPECT_DOUBLE_EQ(d[i], data[i]);
    }
    frontend::mem_free(p, c, 1, ptr);
  });
}

TEST_F(OffloadTest, MemcpyRoundTripUnpipelined) {
  with_daemons(1, [](Proc& p, Comm& c) {
    std::vector<double> data(5'000, 1.5);
    const auto bytes = data.size() * sizeof(double);
    const auto ptr = frontend::mem_alloc(p, c, 1, bytes);
    TransferOptions opts;
    opts.chunk_bytes = 4096;
    opts.pipelined = false;  // ack per chunk
    frontend::memcpy_h2d(p, c, 1, ptr,
                         std::as_bytes(std::span(data)), opts);
    auto back = frontend::memcpy_d2h(p, c, 1, ptr, bytes);
    const auto* d = reinterpret_cast<const double*>(back.data());
    EXPECT_DOUBLE_EQ(d[4999], 1.5);
    frontend::mem_free(p, c, 1, ptr);
  });
}

TEST_F(OffloadTest, EmptyTransferIsFine) {
  with_daemons(1, [](Proc& p, Comm& c) {
    const auto ptr = frontend::mem_alloc(p, c, 1, 16);
    frontend::memcpy_h2d(p, c, 1, ptr, {});
    frontend::mem_free(p, c, 1, ptr);
  });
}

// Ported onto the Scenario harness: the same lifecycle, but through the
// whole system (qsub with acpn=1 -> daemon launch -> session API), with the
// trace confirming every accelerator op executed on the backend daemon as
// part of the submission's trace.
TEST(OffloadScenario, KernelLifecycle) {
  testing::Scenario s;
  s.compute_nodes(1).accel_nodes(1);
  s.program("kernel_lifecycle", [](core::JobContext& ctx) {
    auto& ses = ctx.session();
    auto acs = ses.ac_init();
    ASSERT_EQ(acs.size(), 1u);
    const auto ac = acs[0];
    std::vector<double> a{1, 2, 3};
    std::vector<double> b{4, 5, 6};
    const auto bytes = 3 * sizeof(double);
    const auto da = ses.ac_mem_alloc(ac, bytes);
    const auto db = ses.ac_mem_alloc(ac, bytes);
    const auto dc = ses.ac_mem_alloc(ac, bytes);
    ses.ac_memcpy_h2d(ac, da, std::as_bytes(std::span(a)));
    ses.ac_memcpy_h2d(ac, db, std::as_bytes(std::span(b)));
    const auto k = ses.ac_kernel_create(ac, "vector_add");
    util::ByteWriter args;
    args.put<std::uint64_t>(dc);
    args.put<std::uint64_t>(da);
    args.put<std::uint64_t>(db);
    args.put<std::uint64_t>(3);
    ses.ac_kernel_set_args(ac, k, std::move(args).take());
    ses.ac_kernel_run(ac, k, {1, 1, 1}, {3, 1, 1});
    auto out = ses.ac_memcpy_d2h(ac, dc, bytes);
    const auto* d = reinterpret_cast<const double*>(out.data());
    EXPECT_DOUBLE_EQ(d[0], 5.0);
    EXPECT_DOUBLE_EQ(d[2], 9.0);
    ses.ac_mem_free(ac, da);
    ses.ac_mem_free(ac, db);
    ses.ac_mem_free(ac, dc);
    ses.ac_finalize();
  });
  const auto id = s.submit_program("kernel_lifecycle", 1, /*acpn=*/1);
  ASSERT_TRUE(s.wait_job(id).has_value());
  const auto trace_id = s.await_job_trace(id);
  ASSERT_NE(trace_id, 0u);

  auto view = s.trace();
  // Every op of the lifecycle shows up as a backend span in the job's trace.
  for (const char* op : {"acd.mem_alloc", "acd.memcpy_h2d", "acd.kernel_create",
                         "acd.kernel_set_args", "acd.kernel_run",
                         "acd.memcpy_d2h", "acd.mem_free"}) {
    const auto* span = view.first(op);
    ASSERT_NE(span, nullptr) << op << " never reached the daemon";
    EXPECT_EQ(span->trace, trace_id) << op << " outside the job's trace";
  }
}

TEST_F(OffloadTest, UnknownKernelReportsNotFound) {
  with_daemons(1, [](Proc& p, Comm& c) {
    try {
      (void)frontend::kernel_create(p, c, 1, "no_such_kernel");
      FAIL() << "expected AcError";
    } catch (const AcError& e) {
      EXPECT_EQ(e.status(), Status::kNotFound);
    }
  });
}

TEST_F(OffloadTest, BadKernelHandleReportsInvalid) {
  with_daemons(1, [](Proc& p, Comm& c) {
    try {
      frontend::kernel_run(p, c, 1, 999, {1, 1, 1}, {1, 1, 1});
      FAIL() << "expected AcError";
    } catch (const AcError& e) {
      EXPECT_EQ(e.status(), Status::kInvalidValue);
    }
  });
}

TEST_F(OffloadTest, OutOfDeviceMemoryReported) {
  with_daemons(1, [](Proc& p, Comm& c) {
    try {
      (void)frontend::mem_alloc(p, c, 1, 1ull << 40);
      FAIL() << "expected AcError";
    } catch (const AcError& e) {
      EXPECT_EQ(e.status(), Status::kOutOfMemory);
    }
  });
}

TEST_F(OffloadTest, DoubleFreeReported) {
  with_daemons(1, [](Proc& p, Comm& c) {
    const auto ptr = frontend::mem_alloc(p, c, 1, 64);
    frontend::mem_free(p, c, 1, ptr);
    EXPECT_THROW(frontend::mem_free(p, c, 1, ptr), AcError);
  });
}

// A device pointer near the top of the 64-bit range must not wrap the
// daemon's bounds check: the copy fails and writes no device memory.
TEST_F(OffloadTest, WrappedDevicePointerIsRejected) {
  with_daemons(1, [](Proc& p, Comm& c) {
    const auto ptr = frontend::mem_alloc(p, c, 1, 16);
    const util::Bytes mark(16, std::byte{0x11});
    frontend::memcpy_h2d(p, c, 1, ptr, mark);
    const util::Bytes junk(4, std::byte{0xEE});
    try {
      // ~0 - 1 + 4 wraps around to 2.
      frontend::memcpy_h2d(p, c, 1, ~gpusim::DevicePtr{0} - 1, junk);
      FAIL() << "expected AcError";
    } catch (const AcError& e) {
      EXPECT_EQ(e.status(), Status::kInvalidValue);
    }
    EXPECT_EQ(frontend::memcpy_d2h(p, c, 1, ptr, mark.size()), mark);
  });
  EXPECT_EQ(devices_.device_for(1).stats().bytes_copied_in, 16u);
}

TEST_F(OffloadTest, DeviceInfo) {
  with_daemons(1, [](Proc& p, Comm& c) {
    const auto info = frontend::device_info(p, c, 1);
    EXPECT_EQ(info.name, "SimGPU");
    EXPECT_GT(info.bytes_free, 0u);
  });
}

TEST_F(OffloadTest, MultipleDaemonsIndependentDevices) {
  with_daemons(3, [](Proc& p, Comm& c) {
    // Same value written to each device at (likely) the same device ptr;
    // devices are per node, so no interference.
    std::vector<gpusim::DevicePtr> ptrs;
    for (int rank = 1; rank <= 3; ++rank) {
      const auto ptr = frontend::mem_alloc(p, c, rank, sizeof(double));
      const double v = 100.0 + rank;
      frontend::memcpy_h2d(p, c, rank, ptr,
                           std::as_bytes(std::span(&v, 1)));
      ptrs.push_back(ptr);
    }
    for (int rank = 1; rank <= 3; ++rank) {
      auto out = frontend::memcpy_d2h(
          p, c, rank, ptrs[static_cast<std::size_t>(rank - 1)],
          sizeof(double));
      const auto* d = reinterpret_cast<const double*>(out.data());
      EXPECT_DOUBLE_EQ(*d, 100.0 + rank);
    }
  });
}

TEST_F(OffloadTest, SpawnedDaemonPath) {
  // Dynamic attachment without the batch system: spawn + merge, then use.
  runtime_.register_executable(
      "spawner", [this](Proc& p, const util::Bytes&) {
        minimpi::WorldHandle children;
        Comm inter = p.comm_spawn(p.self(), 0, kSpawnedDaemonExe, {},
                                  {1, 2}, &children);
        Comm merged = p.intercomm_merge(inter, false);
        EXPECT_EQ(merged.rank, 0);
        EXPECT_EQ(merged.size(), 3);
        const auto ptr = frontend::mem_alloc(p, merged, 2, 128);
        frontend::mem_free(p, merged, 2, ptr);
        for (int r = 1; r < merged.size(); ++r) {
          p.send(merged, r, kCtlShutdown, {});
        }
        p.barrier(merged);
        children.join();
      });
  auto cn = runtime_.launch_world("spawner", {5}, {});
  cn.join();
}

}  // namespace
}  // namespace dac::dacc
