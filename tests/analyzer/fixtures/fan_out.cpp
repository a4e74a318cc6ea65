// Seeded violations for the svc::call_all fan-out: it blocks like
// Caller::call, directly under a guard and through a helper called under a
// guard, and it must name its deadline. Scanned with a non-test path.
#include "svc/caller.hpp"
#include "svc/deadlines.hpp"
#include "util/sync.hpp"

namespace fixture {

std::vector<dac::svc::Outcome> gather(dac::vnet::Process& proc,
                                      const dac::util::Bytes& body) {
  return dac::svc::call_all(proc, {}, dac::svc::MsgType{}, body,
                            dac::svc::deadlines::kDefault);
}

struct MotherSuperior {
  dac::util::Mutex mu{"fixture.mother"};

  void direct(dac::vnet::Process& proc, const dac::util::Bytes& body) {
    dac::util::ScopedLock lock(mu);
    (void)dac::svc::call_all(proc, {}, dac::svc::MsgType{}, body,  // line 21
                             dac::svc::deadlines::kDefault);
  }

  void reachable(dac::vnet::Process& proc, const dac::util::Bytes& body) {
    dac::util::ScopedLock lock(mu);
    (void)gather(proc, body);  // line 27: reaches svc::call_all
  }

  void literal(dac::vnet::Process& proc, const dac::util::Bytes& body) {
    (void)dac::svc::call_all(proc, {}, dac::svc::MsgType{}, body,  // line 31
                             std::chrono::milliseconds(250));
  }
};

}  // namespace fixture
