// Per-RPC metrics: every call type accumulates a call count, error count,
// and a latency histogram. Daemons record handling latency through their
// ServiceLoop; clients record round-trip latency through their Caller. The
// snapshot is what DacCluster dumps and what the CLI renders. Each series
// has a fixed size, however many calls it counts: count, errors, mean and
// max are exact, p50 and p99 come from its log buckets (util::LogHistogram),
// and a snapshot costs one pass over them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/sync.hpp"

namespace dac::svc {

struct RpcStats {
  std::uint32_t type = 0;
  std::string name;  // msg_type_name(type)
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct MetricsSnapshot {
  std::vector<RpcStats> rpcs;  // sorted by type code

  [[nodiscard]] const RpcStats* find(std::uint32_t type) const;
  [[nodiscard]] std::uint64_t total_calls() const;
};

class MetricsRegistry {
 public:
  void record(std::uint32_t type, double latency_ms, bool error = false);
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Series {
    util::LogHistogram latency_ms;
    std::uint64_t errors = 0;
  };

  mutable Mutex mu_{"metrics.series"};
  std::map<std::uint32_t, Series> series_ DAC_GUARDED_BY(mu_);
};

// Fixed-width table of a snapshot (one row per message type).
std::string render_metrics(const MetricsSnapshot& snap);

}  // namespace dac::svc
