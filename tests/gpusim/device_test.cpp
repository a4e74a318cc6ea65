#include "gpusim/device.hpp"
#include "simtime/clock.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <random>
#include <vector>

#include "gpusim/driver.hpp"

namespace dac::gpusim {
namespace {

DeviceConfig small_config() {
  DeviceConfig c;
  c.memory_bytes = 1 << 20;  // 1 MiB
  c.time_scale = 0.0;
  return c;
}

TEST(DeviceMemory, AllocFreeRoundTrip) {
  Device dev(small_config());
  const auto before = dev.bytes_free();
  auto p = dev.mem_alloc(1024);
  EXPECT_LT(dev.bytes_free(), before);
  dev.mem_free(p);
  EXPECT_EQ(dev.bytes_free(), before);
}

TEST(DeviceMemory, DistinctAllocationsDoNotOverlap) {
  Device dev(small_config());
  auto a = dev.mem_alloc(1000);
  auto b = dev.mem_alloc(1000);
  // 256-byte alignment: blocks are at least 1024 apart.
  EXPECT_GE(b > a ? b - a : a - b, 1000u);
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  Device dev(small_config());
  EXPECT_THROW(dev.mem_alloc(2 << 20), DeviceError);
}

TEST(DeviceMemory, ExhaustionThenReuse) {
  Device dev(small_config());
  std::vector<DevicePtr> ptrs;
  // Allocate until full.
  try {
    while (true) ptrs.push_back(dev.mem_alloc(64 << 10));
  } catch (const DeviceError&) {
  }
  EXPECT_GE(ptrs.size(), 15u);
  for (auto p : ptrs) dev.mem_free(p);
  // After freeing everything, a full-arena allocation must succeed again
  // (free-list coalescing).
  auto big = dev.mem_alloc((1 << 20) - 256);
  dev.mem_free(big);
}

TEST(DeviceMemory, CoalescingAcrossFreeOrder) {
  Device dev(small_config());
  auto a = dev.mem_alloc(256 << 10);
  auto b = dev.mem_alloc(256 << 10);
  auto c = dev.mem_alloc(256 << 10);
  // Free middle first, then neighbours: coalescing must merge all three.
  dev.mem_free(b);
  dev.mem_free(a);
  dev.mem_free(c);
  auto big = dev.mem_alloc(768 << 10);
  dev.mem_free(big);
}

TEST(DeviceMemory, DoubleFreeThrows) {
  Device dev(small_config());
  auto p = dev.mem_alloc(100);
  dev.mem_free(p);
  EXPECT_THROW(dev.mem_free(p), DeviceError);
}

TEST(DeviceMemory, InvalidFreeThrows) {
  Device dev(small_config());
  EXPECT_THROW(dev.mem_free(12345), DeviceError);
}

TEST(DeviceMemory, ZeroByteAllocationIsValid) {
  Device dev(small_config());
  auto p = dev.mem_alloc(0);
  dev.mem_free(p);
}

TEST(DeviceMemory, MemcpyRoundTrip) {
  Device dev(small_config());
  std::vector<double> in{1.5, -2.5, 3.25};
  auto p = dev.mem_alloc(in.size() * sizeof(double));
  dev.memcpy_h2d(p, in.data(), in.size() * sizeof(double));
  std::vector<double> out(3);
  dev.memcpy_d2h(out.data(), p, out.size() * sizeof(double));
  EXPECT_EQ(in, out);
  dev.mem_free(p);
}

TEST(DeviceMemory, MemsetFillsBytes) {
  Device dev(small_config());
  auto p = dev.mem_alloc(16);
  dev.memset_d(p, std::byte{0xAB}, 16);
  std::vector<std::byte> out(16);
  dev.memcpy_d2h(out.data(), p, 16);
  for (auto b : out) EXPECT_EQ(b, std::byte{0xAB});
  dev.mem_free(p);
}

TEST(DeviceMemory, OutOfBoundsAccessThrows) {
  Device dev(small_config());
  std::byte buf[16];
  EXPECT_THROW(dev.memcpy_d2h(buf, (1 << 20) - 8, 16), DeviceError);
  EXPECT_THROW((void)dev.at(kNullPtr, 1), DeviceError);
}

TEST(DeviceMemory, WrappedRangesThrow) {
  Device dev(small_config());
  // kTop + 4 wraps around to 2: a bounds check on the sum would pass it.
  constexpr DevicePtr kTop = ~DevicePtr{0} - 1;
  std::byte buf[4]{};
  EXPECT_THROW((void)dev.at(kTop, 4), DeviceError);
  EXPECT_THROW(dev.memcpy_h2d(kTop, buf, sizeof(buf)), DeviceError);
  EXPECT_THROW(dev.memcpy_d2h(buf, kTop, sizeof(buf)), DeviceError);
  EXPECT_THROW(dev.memset_d(kTop, std::byte{0xAB}, sizeof(buf)), DeviceError);
  EXPECT_THROW(dev.memcpy_d2d(0, kTop, sizeof(buf)), DeviceError);
  // A length that wraps from a valid pointer.
  EXPECT_THROW((void)dev.at(256, ~std::size_t{0} - 8), DeviceError);
  EXPECT_EQ(dev.stats().bytes_copied_in, 0u);
}

TEST(DeviceMemory, EmptyDeviceHasNoMemory) {
  DeviceConfig cfg = small_config();
  cfg.memory_bytes = 0;
  Device dev(cfg);
  EXPECT_EQ(dev.bytes_free(), 0u);
  EXPECT_THROW(dev.mem_alloc(1), DeviceError);
  dev.memcpy_h2d(0, nullptr, 0);
  EXPECT_THROW((void)dev.at(0, 1), DeviceError);
  dev.mem_reset();
}

// Pages of the arena's first `bytes` the host holds in RAM. mincore() reads
// the mapping itself, so unlike sampling the process's RSS it is exact.
std::size_t resident_pages(Device& dev, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  EXPECT_EQ(::mincore(dev.at(0, bytes), bytes, vec.data()), 0);
  return static_cast<std::size_t>(std::count_if(
      vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

TEST(DeviceMemory, ArenaIsResidentOnlyWhereWritten) {
  Device dev;  // the default 64 MiB arena
  const auto size = dev.config().memory_bytes;
  EXPECT_EQ(resident_pages(dev, size), 0u);

  const std::vector<std::byte> data(8 << 10, std::byte{0x5A});
  const auto p = dev.mem_alloc(data.size());
  dev.memcpy_h2d(p, data.data(), data.size());
  EXPECT_GE(resident_pages(dev, size), 2u);
  EXPECT_LE(resident_pages(dev, size), 3u);

  dev.mem_reset();
  EXPECT_EQ(resident_pages(dev, size), 0u);
  const auto q = dev.mem_alloc(data.size());
  std::vector<std::byte> back(data.size(), std::byte{0xFF});
  dev.memcpy_d2h(back.data(), q, back.size());
  EXPECT_EQ(back, std::vector<std::byte>(data.size()));
}

TEST(DeviceMemory, StatsTrackUsage) {
  Device dev(small_config());
  auto p = dev.mem_alloc(1000);
  auto q = dev.mem_alloc(1000);
  dev.mem_free(p);
  const auto s = dev.stats();
  EXPECT_EQ(s.allocs, 2u);
  EXPECT_EQ(s.frees, 1u);
  EXPECT_GT(s.peak_bytes_in_use, s.bytes_in_use);
  dev.mem_free(q);
}

// Property test: random alloc/free sequences never hand out overlapping
// blocks and always restore the full arena.
class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorProperty, NoOverlapAndFullRecovery) {
  Device dev(small_config());
  const auto initial_free = dev.bytes_free();
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> size_dist(1, 8192);
  std::vector<std::pair<DevicePtr, std::size_t>> live;

  for (int step = 0; step < 400; ++step) {
    const bool do_alloc = live.empty() || (rng() % 3) != 0;
    if (do_alloc) {
      const auto size = size_dist(rng);
      try {
        const auto p = dev.mem_alloc(size);
        for (const auto& [q, qsize] : live) {
          const bool disjoint = p + size <= q || q + qsize <= p;
          ASSERT_TRUE(disjoint) << "overlapping allocation";
        }
        live.emplace_back(p, size);
      } catch (const DeviceError&) {
        // Arena full: acceptable.
      }
    } else {
      const auto idx = rng() % live.size();
      dev.mem_free(live[idx].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  for (const auto& [p, size] : live) dev.mem_free(p);
  EXPECT_EQ(dev.bytes_free(), initial_free);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---- kernels ---------------------------------------------------------------

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : dev_(small_config()) { register_builtin_kernels(dev_); }

  DevicePtr upload(const std::vector<double>& v) {
    auto p = dev_.mem_alloc(v.size() * sizeof(double));
    dev_.memcpy_h2d(p, v.data(), v.size() * sizeof(double));
    return p;
  }

  std::vector<double> download(DevicePtr p, std::size_t n) {
    std::vector<double> v(n);
    dev_.memcpy_d2h(v.data(), p, n * sizeof(double));
    return v;
  }

  Device dev_;
};

TEST_F(KernelTest, VectorAdd) {
  auto a = upload({1, 2, 3, 4});
  auto b = upload({10, 20, 30, 40});
  auto c = dev_.mem_alloc(4 * sizeof(double));
  util::ByteWriter w;
  w.put<std::uint64_t>(c);
  w.put<std::uint64_t>(a);
  w.put<std::uint64_t>(b);
  w.put<std::uint64_t>(4);
  dev_.launch("vector_add", {1, 1, 1}, {4, 1, 1}, w.bytes());
  EXPECT_EQ(download(c, 4), (std::vector<double>{11, 22, 33, 44}));
}

TEST_F(KernelTest, Saxpy) {
  auto y = upload({1, 1, 1});
  auto x = upload({1, 2, 3});
  util::ByteWriter w;
  w.put<std::uint64_t>(y);
  w.put<std::uint64_t>(x);
  w.put<double>(2.0);
  w.put<std::uint64_t>(3);
  dev_.launch("saxpy", {1, 1, 1}, {3, 1, 1}, w.bytes());
  EXPECT_EQ(download(y, 3), (std::vector<double>{3, 5, 7}));
}

TEST_F(KernelTest, Dot) {
  auto a = upload({1, 2, 3});
  auto b = upload({4, 5, 6});
  auto out = dev_.mem_alloc(sizeof(double));
  util::ByteWriter w;
  w.put<std::uint64_t>(out);
  w.put<std::uint64_t>(a);
  w.put<std::uint64_t>(b);
  w.put<std::uint64_t>(3);
  dev_.launch("dot", {1, 1, 1}, {3, 1, 1}, w.bytes());
  EXPECT_DOUBLE_EQ(download(out, 1)[0], 32.0);
}

TEST_F(KernelTest, Matmul) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  auto a = upload({1, 2, 3, 4});
  auto b = upload({5, 6, 7, 8});
  auto c = dev_.mem_alloc(4 * sizeof(double));
  util::ByteWriter w;
  w.put<std::uint64_t>(c);
  w.put<std::uint64_t>(a);
  w.put<std::uint64_t>(b);
  w.put<std::uint64_t>(2);
  w.put<std::uint64_t>(2);
  w.put<std::uint64_t>(2);
  dev_.launch("matmul", {1, 1, 1}, {4, 1, 1}, w.bytes());
  EXPECT_EQ(download(c, 4), (std::vector<double>{19, 22, 43, 50}));
}

TEST_F(KernelTest, ReduceSumAndFill) {
  auto dst = dev_.mem_alloc(8 * sizeof(double));
  util::ByteWriter wf;
  wf.put<std::uint64_t>(dst);
  wf.put<double>(2.5);
  wf.put<std::uint64_t>(8);
  dev_.launch("fill", {1, 1, 1}, {8, 1, 1}, wf.bytes());

  auto out = dev_.mem_alloc(sizeof(double));
  util::ByteWriter wr;
  wr.put<std::uint64_t>(out);
  wr.put<std::uint64_t>(dst);
  wr.put<std::uint64_t>(8);
  dev_.launch("reduce_sum", {1, 1, 1}, {8, 1, 1}, wr.bytes());
  EXPECT_DOUBLE_EQ(download(out, 1)[0], 20.0);
}

TEST_F(KernelTest, UnknownKernelThrows) {
  EXPECT_THROW(dev_.launch("nope", {1, 1, 1}, {1, 1, 1}, {}),
               DeviceError);
}

TEST_F(KernelTest, HasKernel) {
  EXPECT_TRUE(dev_.has_kernel("vector_add"));
  EXPECT_FALSE(dev_.has_kernel("nope"));
}

TEST_F(KernelTest, CustomKernelRegistration) {
  dev_.register_kernel("touch", Kernel{[](KernelContext& ctx) {
                                         *ctx.span<double>(
                                             ctx.arg_reader()
                                                 .get<std::uint64_t>(),
                                             1) = 7.0;
                                       },
                                       nullptr});
  auto p = dev_.mem_alloc(sizeof(double));
  util::ByteWriter w;
  w.put<std::uint64_t>(p);
  dev_.launch("touch", {1, 1, 1}, {1, 1, 1}, w.bytes());
  EXPECT_DOUBLE_EQ(download(p, 1)[0], 7.0);
}

TEST_F(KernelTest, NullKernelRegistrationThrows) {
  EXPECT_THROW(dev_.register_kernel("bad", Kernel{nullptr, nullptr}),
               DeviceError);
}

TEST_F(KernelTest, LaunchCountsInStats) {
  auto dst = dev_.mem_alloc(sizeof(double));
  util::ByteWriter w;
  w.put<std::uint64_t>(dst);
  w.put<double>(0.0);
  w.put<std::uint64_t>(1);
  dev_.launch("fill", {1, 1, 1}, {1, 1, 1}, w.bytes());
  EXPECT_EQ(dev_.stats().kernels_launched, 1u);
}

// ---- driver API ------------------------------------------------------------

TEST(DriverApi, SuccessPath) {
  Device dev(small_config());
  register_builtin_kernels(dev);
  DevicePtr p = kNullPtr;
  EXPECT_EQ(driver::mem_alloc(dev, 64, &p), driver::Status::kSuccess);
  double x = 3.0;
  EXPECT_EQ(driver::memcpy_h2d(dev, p, &x, sizeof(x)),
            driver::Status::kSuccess);
  double y = 0.0;
  EXPECT_EQ(driver::memcpy_d2h(dev, &y, p, sizeof(y)),
            driver::Status::kSuccess);
  EXPECT_DOUBLE_EQ(y, 3.0);
  EXPECT_EQ(driver::mem_free(dev, p), driver::Status::kSuccess);
}

TEST(DriverApi, ErrorMapping) {
  Device dev(small_config());
  DevicePtr p = kNullPtr;
  EXPECT_EQ(driver::mem_alloc(dev, 1 << 30, &p),
            driver::Status::kOutOfMemory);
  EXPECT_EQ(driver::mem_alloc(dev, 10, nullptr),
            driver::Status::kInvalidValue);
  EXPECT_EQ(driver::mem_free(dev, 777), driver::Status::kInvalidValue);
  EXPECT_EQ(driver::launch_kernel(dev, "ghost", {1, 1, 1}, {1, 1, 1}, {}),
            driver::Status::kNotFound);
  EXPECT_EQ(driver::memcpy_h2d(dev, 0, nullptr, 4),
            driver::Status::kInvalidValue);
}

TEST(DriverApi, StatusNames) {
  EXPECT_STREQ(driver::status_name(driver::Status::kSuccess), "success");
  EXPECT_STREQ(driver::status_name(driver::Status::kOutOfMemory),
               "out_of_memory");
}

TEST(DeviceTiming, CostModelConsumesTime) {
  DeviceConfig cfg;
  cfg.memory_bytes = 1 << 20;
  cfg.time_scale = 1.0;
  Device dev(cfg);
  dev.register_kernel("slow",
                      Kernel{[](KernelContext&) {},
                             [](const KernelContext&) {
                               return std::chrono::nanoseconds(20'000'000);
                             }});
  const auto start = dac::simtime::now();
  dev.launch("slow", {1, 1, 1}, {1, 1, 1}, {});
  EXPECT_GE(dac::simtime::now() - start,
            std::chrono::milliseconds(15));
}

TEST(DeviceTiming, TimeScaleZeroDisablesCost) {
  Device dev(small_config());
  dev.register_kernel("slow",
                      Kernel{[](KernelContext&) {},
                             [](const KernelContext&) {
                               return std::chrono::nanoseconds(50'000'000);
                             }});
  const auto start = dac::simtime::now();
  dev.launch("slow", {1, 1, 1}, {1, 1, 1}, {});
  EXPECT_LT(dac::simtime::now() - start,
            std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace dac::gpusim
