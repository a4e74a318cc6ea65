// Simulated accelerator device: a device-memory arena with a first-fit
// free-list allocator, a kernel registry, and synchronous execute/copy
// operations. The arena is reserved address space, not committed memory: a
// page costs host RAM only once a copy, memset or kernel first writes it, so
// an idle simulated accelerator is nearly free. Kernels are real C++
// callables operating on device memory, so offloaded computations produce
// real results; an optional cost model makes kernel execution consume
// simulated time (for latency-hiding experiments).
//
// This plays the role of the CUDA-enabled GPU in the paper's accelerator
// (Figure 1(b)); the back-end daemon drives it through the thin driver API
// in gpusim/driver.hpp, as the paper's daemon drives the CUDA driver API.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace dac::gpusim {

// Device memory handle (byte offset into the arena), like CUdeviceptr.
using DevicePtr = std::uint64_t;
inline constexpr DevicePtr kNullPtr = ~DevicePtr{0};

struct Dim3 {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  std::uint32_t z = 1;

  [[nodiscard]] std::uint64_t total() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }
  friend bool operator==(const Dim3&, const Dim3&) = default;
};

class Device;

// Everything a kernel sees at launch: launch geometry, serialized args, and
// bounds-checked access to device memory.
class KernelContext {
 public:
  KernelContext(Device& device, Dim3 grid, Dim3 block, const util::Bytes& args)
      : device_(device), grid_(grid), block_(block), args_(args) {}

  [[nodiscard]] Dim3 grid() const { return grid_; }
  [[nodiscard]] Dim3 block() const { return block_; }
  [[nodiscard]] std::uint64_t thread_count() const {
    return grid_.total() * block_.total();
  }
  [[nodiscard]] const util::Bytes& args() const { return args_; }
  [[nodiscard]] util::ByteReader arg_reader() const {
    return util::ByteReader(args_);
  }

  // Typed device-memory access; throws DeviceError on out-of-bounds.
  template <typename T>
  [[nodiscard]] T* span(DevicePtr ptr, std::size_t count);

 private:
  Device& device_;
  Dim3 grid_;
  Dim3 block_;
  const util::Bytes& args_;
};

using KernelFn = std::function<void(KernelContext&)>;
// Returns the simulated execution time of a launch; nullopt = free.
using KernelCostFn =
    std::function<std::chrono::nanoseconds(const KernelContext&)>;

struct Kernel {
  KernelFn fn;
  KernelCostFn cost;  // may be null
};

class DeviceError : public std::runtime_error {
 public:
  explicit DeviceError(const std::string& what) : std::runtime_error(what) {}
};

struct DeviceConfig {
  // Device memory size. Reserved, not committed: host RAM follows the pages
  // the device's users have written since the last mem_reset().
  std::size_t memory_bytes = 64u << 20;  // 64 MiB default arena
  std::string name = "SimGPU";
  // Scales every kernel cost model; 0 disables simulated compute time.
  double time_scale = 1.0;
};

struct DeviceStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t kernels_launched = 0;
  std::uint64_t bytes_copied_in = 0;
  std::uint64_t bytes_copied_out = 0;
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes_in_use = 0;
};

class Device {
 public:
  // Reserves the arena; throws DeviceError when the host cannot map it.
  explicit Device(DeviceConfig config = {});

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceConfig& config() const { return config_; }

  // ---- memory ---------------------------------------------------------
  // First-fit allocation; throws DeviceError when out of memory.
  DevicePtr mem_alloc(std::size_t bytes);
  void mem_free(DevicePtr ptr);
  // Frees every outstanding allocation at once, returning the whole arena to
  // the free list, and hands the arena's pages back to the host, so it reads
  // as zeros again (cudaDeviceReset analogue). Used when a daemon's set is
  // released or reclaimed: a released accelerator holds no host memory, and
  // the next holder starts from a clean device.
  void mem_reset();
  [[nodiscard]] std::size_t bytes_free() const;

  void memcpy_h2d(DevicePtr dst, const void* src, std::size_t bytes);
  void memcpy_d2h(void* dst, DevicePtr src, std::size_t bytes);
  void memcpy_d2d(DevicePtr dst, DevicePtr src, std::size_t bytes);
  void memset_d(DevicePtr dst, std::byte value, std::size_t bytes);

  // Raw pointer to [ptr, ptr + bytes) of the arena; throws DeviceError unless
  // the whole range lies inside it (used by KernelContext).
  [[nodiscard]] std::byte* at(DevicePtr ptr, std::size_t bytes);

  // ---- kernels ----------------------------------------------------------
  void register_kernel(const std::string& name, Kernel kernel);
  [[nodiscard]] bool has_kernel(const std::string& name) const;
  // Executes synchronously in the calling thread; sleeps for the modeled
  // cost (scaled by config.time_scale) if the kernel declares one.
  void launch(const std::string& name, Dim3 grid, Dim3 block,
              const util::Bytes& args);

  [[nodiscard]] DeviceStats stats() const;

 private:
  struct Block {
    std::size_t offset;
    std::size_t size;
  };

  // Device memory: one anonymous private mapping. Untouched pages read as
  // zero and occupy no host RAM; discard() returns every page to that state.
  class Arena {
   public:
    explicit Arena(std::size_t bytes);
    ~Arena();
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    [[nodiscard]] std::byte* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    void discard();

   private:
    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
  };

  DeviceConfig config_;
  Arena arena_;

  mutable Mutex mu_{"device"};
  std::vector<Block> free_list_ DAC_GUARDED_BY(mu_);  // sorted by offset
  std::map<std::size_t, std::size_t> allocated_
      DAC_GUARDED_BY(mu_);  // offset -> size
  std::map<std::string, Kernel> kernels_ DAC_GUARDED_BY(mu_);
  DeviceStats stats_ DAC_GUARDED_BY(mu_);
};

template <typename T>
T* KernelContext::span(DevicePtr ptr, std::size_t count) {
  return reinterpret_cast<T*>(device_.at(ptr, count * sizeof(T)));
}

// Registers the built-in kernels (vector_add, saxpy, dot, matmul,
// reduce_sum, fill) on a device; used by the DAC back-end daemon and tests.
void register_builtin_kernels(Device& device);

}  // namespace dac::gpusim
