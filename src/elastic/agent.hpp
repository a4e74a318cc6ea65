// The job-side endpoint of the elastic negotiation: a malleable application
// constructs an ElasticAgent inside its job process, declares what it
// accepts (grow and/or shrink, with callbacks that resize the session), and
// announces itself to the server (kElastRegister). From then on a small
// service loop answers each of the server's offers with its accept flag,
// while committed reconfigurations queue up until the application calls
// service() — so the actual session resize (MPI spawn/abandon) runs on the
// application thread, like any other MPI work, under the negotiation's trace
// context.
//
//   elastic::AgentConfig cfg = ctx.elastic_config();   // core::JobContext
//   cfg.accept_shrink = true;
//   elastic::ElasticAgent agent(ctx.mpi().process(), cfg);
//   agent.on_shrink([&](const elastic::Reconfig& r) {
//     session.ac_detach(r.client_id);                  // drop the set
//   });
//   agent.announce();
//   while (working) { compute(); agent.service(); }
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>

#include "elastic/protocol.hpp"
#include "simtime/clock.hpp"
#include "svc/caller.hpp"
#include "svc/service_loop.hpp"
#include "trace/trace.hpp"
#include "util/queue.hpp"
#include "vnet/node.hpp"

namespace dac::elastic {

struct AgentConfig {
  torque::JobId job = torque::kInvalidJob;
  vnet::Address server;
  bool accept_grow = false;
  bool accept_shrink = false;
  std::int32_t appetite = 0;  // max extra accelerators this job would absorb
};

class ElasticAgent {
 public:
  using ReconfigHandler = std::function<void(const Reconfig&)>;

  ElasticAgent(vnet::Process& proc, AgentConfig config);
  ~ElasticAgent();

  ElasticAgent(const ElasticAgent&) = delete;
  ElasticAgent& operator=(const ElasticAgent&) = delete;

  // Install the apply callbacks before announce(); they run on the thread
  // that calls service(), never on the agent's loop thread.
  void on_grow(ReconfigHandler fn) { grow_fn_ = std::move(fn); }
  void on_shrink(ReconfigHandler fn) { shrink_fn_ = std::move(fn); }

  // Registers with the server and starts the offer loop.
  void announce();

  // Applies queued reconfigurations through the installed callbacks,
  // waiting up to `wait` for the first one; returns how many were applied.
  // Throws util::StoppedError once the owning process is being killed.
  std::size_t service(
      std::chrono::milliseconds wait = std::chrono::milliseconds(0));

  // Re-registers with an updated appetite (e.g. after the application shed
  // work). Also restores capability bits a nack/timeout cleared.
  void set_appetite(std::int32_t appetite);

  // Stops answering offers. Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] const vnet::Address& address() const {
    return ep_->address();
  }

 private:
  struct Pending {
    Reconfig reconfig;
    trace::Context ctx;  // serve-span context, links apply into the trace
  };

  void send_registration();
  void handle_offer(const svc::Request& req, svc::Responder& resp);
  void handle_reconfig(const svc::Request& req);
  void apply(const Pending& pending);

  vnet::Process& proc_;
  AgentConfig config_;
  std::unique_ptr<vnet::Endpoint> ep_;
  std::unique_ptr<svc::ServiceLoop> loop_;
  util::BlockingQueue<Pending> inbox_;
  ReconfigHandler grow_fn_;
  ReconfigHandler shrink_fn_;
  std::optional<simtime::ActorThread> thread_;
};

}  // namespace dac::elastic
