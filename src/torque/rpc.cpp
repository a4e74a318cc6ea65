#include "torque/rpc.hpp"

#include "svc/caller.hpp"

namespace dac::torque::rpc {

util::Bytes call(vnet::Node& node, const vnet::Address& to, MsgType type,
                 util::Bytes body, std::chrono::milliseconds timeout) {
  return svc::Caller(node, to, svc::RetryPolicy::none())
      .call(type, std::move(body), {.deadline = timeout});
}

}  // namespace dac::torque::rpc
