// A fault injector for one message: applies `fault` to the `nth` (1-based)
// message of one type and lets everything else through. It counts every
// message of that type, retransmits included, so a test can tell a resend
// from a new decision.
#pragma once

#include <atomic>
#include <cstdint>

#include "torque/protocol.hpp"
#include "vnet/fault_injector.hpp"

namespace dac::testing {

class FaultOne : public vnet::FaultInjector {
 public:
  FaultOne(torque::MsgType type, int nth, vnet::FaultDecision fault)
      : type_(torque::as_u32(type)), nth_(nth), fault_(fault) {}

  vnet::FaultDecision on_message(vnet::NodeId, vnet::NodeId,
                                 std::uint32_t type, std::size_t) override {
    if (type != type_) return {};
    return ++seen_ == nth_ ? fault_ : vnet::FaultDecision{};
  }

  [[nodiscard]] int seen() const { return seen_.load(); }

 private:
  const std::uint32_t type_;
  const int nth_;
  const vnet::FaultDecision fault_;
  std::atomic<int> seen_{0};
};

inline constexpr vnet::FaultDecision kDrop{.drop = true};

}  // namespace dac::testing
