// Mini handler registrations. Scanned as src/mini/server.cpp. kAlpha is
// registered twice (duplicate) and kOmega is not in the enum (unknown);
// kBeta is never registered; kGamma comes in through a helper lambda.
#include "mini_protocol.hpp"

namespace fixture {

void register_handlers(ServiceLoop& loop) {
  loop.on(MsgType::kAlpha, handler);  // line 9
  loop.on(MsgType::kAlpha, handler);  // line 10
  loop.on(MsgType::kOmega, handler);  // line 11
  const auto reg = [&](MsgType type, Handler h) {
    loop.on(type, h);
  };
  reg(MsgType::kGamma, handler);
}

}  // namespace fixture
