#include "gpusim/device.hpp"
#include "simtime/clock.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "util/logging.hpp"

namespace dac::gpusim {

namespace {
const util::Logger kLog("gpusim");
}

Device::Arena::Arena(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;  // mmap rejects empty mappings
  // MAP_NORESERVE: the arena is address space, not a commitment; a page is
  // backed on its first write, and one never written reads as zero.
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    throw DeviceError("cannot map " + std::to_string(bytes) +
                      " bytes of device memory: " + std::strerror(errno));
  }
  data_ = static_cast<std::byte*>(p);
  // Small pages even where transparent huge pages are always on: a 2 MiB
  // page behind every first write would undo the point of reserving.
  // Best effort: kernels without THP reject the advice, harmlessly.
  (void)::madvise(data_, size_, MADV_NOHUGEPAGE);
}

Device::Arena::~Arena() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void Device::Arena::discard() {
  // Private anonymous pages dropped with MADV_DONTNEED read back as zeros.
  if (data_ != nullptr) (void)::madvise(data_, size_, MADV_DONTNEED);
}

Device::Device(DeviceConfig config)
    : config_(std::move(config)), arena_(config_.memory_bytes) {
  free_list_.push_back(Block{0, arena_.size()});
}

DevicePtr Device::mem_alloc(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  // Align to 256 bytes like real device allocators.
  constexpr std::size_t kAlign = 256;
  bytes = (bytes + kAlign - 1) / kAlign * kAlign;

  ScopedLock lock(mu_);
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->size < bytes) continue;
    const std::size_t offset = it->offset;
    if (it->size == bytes) {
      free_list_.erase(it);
    } else {
      it->offset += bytes;
      it->size -= bytes;
    }
    allocated_[offset] = bytes;
    ++stats_.allocs;
    stats_.bytes_in_use += bytes;
    stats_.peak_bytes_in_use =
        std::max(stats_.peak_bytes_in_use, stats_.bytes_in_use);
    return offset;
  }
  throw DeviceError("out of device memory: requested " +
                    std::to_string(bytes) + " bytes");
}

void Device::mem_free(DevicePtr ptr) {
  ScopedLock lock(mu_);
  auto it = allocated_.find(static_cast<std::size_t>(ptr));
  if (it == allocated_.end()) {
    throw DeviceError("mem_free: invalid device pointer " +
                      std::to_string(ptr));
  }
  const Block freed{it->first, it->second};
  stats_.bytes_in_use -= freed.size;
  ++stats_.frees;
  allocated_.erase(it);

  // Insert sorted and coalesce with neighbours.
  auto pos = std::lower_bound(
      free_list_.begin(), free_list_.end(), freed,
      [](const Block& a, const Block& b) { return a.offset < b.offset; });
  pos = free_list_.insert(pos, freed);
  // Coalesce with next.
  if (auto next = std::next(pos); next != free_list_.end() &&
                                  pos->offset + pos->size == next->offset) {
    pos->size += next->size;
    free_list_.erase(next);
  }
  // Coalesce with previous.
  if (pos != free_list_.begin()) {
    auto prev = std::prev(pos);
    if (prev->offset + prev->size == pos->offset) {
      prev->size += pos->size;
      free_list_.erase(pos);
    }
  }
}

void Device::mem_reset() {
  ScopedLock lock(mu_);
  // Under the lock: a page discarded after the allocator reopened could wipe
  // a new holder's first write.
  arena_.discard();
  stats_.frees += allocated_.size();
  stats_.bytes_in_use = 0;
  allocated_.clear();
  free_list_.assign(1, Block{0, arena_.size()});
}

std::size_t Device::bytes_free() const {
  ScopedLock lock(mu_);
  std::size_t total = 0;
  for (const auto& b : free_list_) total += b.size;
  return total;
}

std::byte* Device::at(DevicePtr ptr, std::size_t bytes) {
  // Two comparisons, not `ptr + bytes > size`: that sum wraps for a pointer
  // near the top of the range and would pass.
  if (ptr > arena_.size() || bytes > arena_.size() - ptr) {
    throw DeviceError("device access out of bounds: ptr=" +
                      std::to_string(ptr) + " len=" + std::to_string(bytes));
  }
  return arena_.data() + ptr;
}

void Device::memcpy_h2d(DevicePtr dst, const void* src, std::size_t bytes) {
  // A 0-byte copy may come with a null host pointer, which memcpy forbids.
  auto* const to = at(dst, bytes);
  if (bytes > 0) std::memcpy(to, src, bytes);
  ScopedLock lock(mu_);
  stats_.bytes_copied_in += bytes;
}

void Device::memcpy_d2h(void* dst, DevicePtr src, std::size_t bytes) {
  const auto* const from = at(src, bytes);
  if (bytes > 0) std::memcpy(dst, from, bytes);
  ScopedLock lock(mu_);
  stats_.bytes_copied_out += bytes;
}

void Device::memcpy_d2d(DevicePtr dst, DevicePtr src, std::size_t bytes) {
  auto* const to = at(dst, bytes);
  const auto* const from = at(src, bytes);
  if (bytes > 0) std::memmove(to, from, bytes);
}

void Device::memset_d(DevicePtr dst, std::byte value, std::size_t bytes) {
  std::fill_n(at(dst, bytes), bytes, value);
}

void Device::register_kernel(const std::string& name, Kernel kernel) {
  if (!kernel.fn) throw DeviceError("register_kernel: null function");
  ScopedLock lock(mu_);
  kernels_[name] = std::move(kernel);
}

bool Device::has_kernel(const std::string& name) const {
  ScopedLock lock(mu_);
  return kernels_.contains(name);
}

void Device::launch(const std::string& name, Dim3 grid, Dim3 block,
                    const util::Bytes& args) {
  Kernel kernel;
  {
    ScopedLock lock(mu_);
    auto it = kernels_.find(name);
    if (it == kernels_.end()) {
      throw DeviceError("launch: unknown kernel '" + name + "'");
    }
    kernel = it->second;
    ++stats_.kernels_launched;
  }
  KernelContext ctx(*this, grid, block, args);
  kernel.fn(ctx);
  if (kernel.cost && config_.time_scale > 0.0) {
    const auto cost = kernel.cost(ctx);
    const auto scaled = std::chrono::nanoseconds(static_cast<long long>(
        static_cast<double>(cost.count()) * config_.time_scale));
    if (scaled.count() > 0) simtime::sleep_for(scaled);
  }
  kLog.trace("kernel '{}' <<<{},{}>>> done", name, grid.total(),
             block.total());
}

DeviceStats Device::stats() const {
  ScopedLock lock(mu_);
  return stats_;
}

}  // namespace dac::gpusim
