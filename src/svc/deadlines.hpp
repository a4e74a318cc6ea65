// Named deadline policy for every RPC the cluster issues. Call sites name
// one of these constants (or a config field) instead of writing a bare
// chrono literal, so the full timeout policy is auditable in one place and
// the analyzer's deadline-literal rule can enforce it.
#pragma once

#include <chrono>

namespace dac::svc::deadlines {

// General request/reply bound: IFL client calls, scheduler<->server cycles,
// mom registration. Generous because a scheduling cycle on a loaded server
// can serialize behind long mutating handlers.
inline constexpr std::chrono::milliseconds kDefault{30'000};

// Control-plane calls against a single daemon (ARM allocate/free/status):
// no scheduling work behind them, so a hung daemon should surface fast.
inline constexpr std::chrono::milliseconds kControl{10'000};

// Held replies that carry the client's own budget (WAIT_JOB): the server
// answers "not reached" when the budget runs out, and the client listens
// this much longer, so that answer never arrives at a closed endpoint.
inline constexpr std::chrono::milliseconds kHeldReplySlack{1'000};

}  // namespace dac::svc::deadlines
