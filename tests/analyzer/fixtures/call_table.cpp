// CallTable::call, the entry point the Maui scheduler and svc::Caller send
// through: the deadline is the 4th argument and must be named, while the
// continuation after it may hold any literal. Scanned with a non-test path.
#include "svc/call_table.hpp"
#include "svc/deadlines.hpp"

namespace fixture {

void calls(dac::svc::CallTable& table, const dac::vnet::Address& to,
           const dac::util::Bytes& body) {
  (void)table.call(to, dac::svc::MsgType{}, body,
                   dac::svc::deadlines::kDefault,
                   [](dac::svc::Outcome) {
                     (void)std::chrono::milliseconds(250);
                   });
  (void)table.call(to, dac::svc::MsgType{}, body,  // line 16
                   std::chrono::milliseconds(250),
                   [](dac::svc::Outcome) {});
}

}  // namespace fixture
