// ServiceLoop::call_all fan-outs: the deadline is the 4th argument and must
// be named, while the continuation after it may hold any literal. A fan-out
// never blocks, so starting one under a guard is fine. Scanned with a
// non-test path.
#include "svc/deadlines.hpp"
#include "svc/service_loop.hpp"
#include "util/sync.hpp"

namespace fixture {

struct MotherSuperior {
  dac::util::Mutex mu{"fixture.mother"};
  dac::svc::ServiceLoop* loop = nullptr;

  void named(const dac::util::Bytes& body) {
    dac::util::ScopedLock lock(mu);
    loop->call_all({}, dac::svc::MsgType{}, body,
                   dac::svc::deadlines::kDefault,
                   [](std::vector<dac::svc::Outcome>) {
                     (void)std::chrono::milliseconds(250);
                   });
  }

  void literal(const dac::util::Bytes& body) {
    loop->call_all({}, dac::svc::MsgType{}, body,  // line 25
                   std::chrono::milliseconds(250),
                   [](std::vector<dac::svc::Outcome>) {});
  }
};

}  // namespace fixture
