// Legacy request/reply helpers, now thin shims over the svc service runtime
// (src/svc/). The wire format is unchanged:
//
// Request payload:  [u64 request-id][body...]        Message.type = MsgType
// Reply payload:    [u64 request-id][u8 code][body]  Message.type = kReply
//
// New code should use svc::Caller (retry/deadline/metrics) and
// svc::ServiceLoop (typed dispatch, dedup, call_all fan-outs) directly;
// these wrappers remain for single-shot calls from tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "svc/deadlines.hpp"
#include "svc/wire.hpp"
#include "torque/protocol.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "vnet/node.hpp"

namespace dac::torque::rpc {

inline constexpr auto kDefaultTimeout = svc::deadlines::kDefault;

// Thrown when the callee replied with a non-ok code.
using CallError = svc::CallError;

// Blocking single-attempt call from a non-process context (client commands,
// tests). Times out with svc::DeadlineError.
[[nodiscard]] util::Bytes call(vnet::Node& node, const vnet::Address& to,
                               MsgType type, util::Bytes body,
                               std::chrono::milliseconds timeout =
                                   kDefaultTimeout);

// Fire-and-forget request (no reply expected), from any endpoint.
inline void notify(vnet::Endpoint& ep, const vnet::Address& to, MsgType type,
                   util::Bytes body) {
  svc::notify(ep, to, type, std::move(body));
}

// ---- callee side ----------------------------------------------------------
// Using-declarations (not wrappers) so that unqualified calls on a
// svc::Request don't become ambiguous through ADL.

using Request = svc::Request;

using svc::parse_request;
using svc::reply_error;
using svc::reply_error_to;
using svc::reply_ok;
using svc::reply_ok_to;

}  // namespace dac::torque::rpc
