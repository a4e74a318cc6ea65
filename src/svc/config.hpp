// Cluster-wide service-runtime knobs, carried inside DacClusterConfig. The
// defaults give clients that retransmit only on silence.
#pragma once

#include <cstddef>

#include "svc/caller.hpp"

namespace dac::svc {

struct ServiceTuning {
  // Completed request-ids each daemon remembers for duplicate suppression.
  std::size_t dedup_window = 256;
  // Retry policy for clients (IFL, scheduler, rmlib sessions, ARM clients).
  RetryPolicy retry;
};

}  // namespace dac::svc
