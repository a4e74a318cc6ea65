// Wire format of the elastic negotiation protocol: scheduler-initiated
// grow/shrink of running jobs (following the offer/ack reconfiguration model
// of the DMR API). Three phases:
//
//   offer       — Maui's utilization policy proposes the change as an item
//                 of its kDynDecide batch (torque/sched_feed.hpp; a grow
//                 names the accelerators Maui picked). The server reserves
//                 them and offers the change to the job's ElasticAgent
//                 (kElastOffer).
//   ack/nack    — the agent's reply to the offer: one accept flag. The
//                 offer is a call with the deadline
//                 BatchTiming::elastic_offer_timeout; a nack, or no reply by
//                 then, reverts the reservation with no slot leak.
//   reconfigure — on an accepted offer the server atomically adjusts slot
//                 accounting and AC grants, notifies the mother superior, and
//                 tells the agent the committed footprint (kElastReconfig)
//                 so the application resizes its session.
//
// Grows are accelerator grows of one slot per host, like a dynget's grant.
// Like svc/wire.hpp, this header reuses torque's header-only protocol types
// (MsgType codes, JobId); the elastic library does not link against the
// torque library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "torque/job.hpp"
#include "torque/protocol.hpp"
#include "util/bytes.hpp"
#include "vnet/message.hpp"

namespace dac::elastic {

enum class OfferKind : std::uint8_t { kGrow = 0, kShrink = 1 };

inline const char* offer_kind_name(OfferKind k) {
  return k == OfferKind::kGrow ? "grow" : "shrink";
}

// agent -> server (kElastRegister): a running job opts into elasticity and
// publishes where offers should be sent. Re-registering replaces the record
// (and restores capability bits cleared by an earlier nack/timeout).
struct Registration {
  torque::JobId job = torque::kInvalidJob;
  vnet::Address agent;      // the ElasticAgent's endpoint
  bool can_grow = false;    // accepts grow offers
  bool can_shrink = false;  // accepts shrink offers (newest set first)
  std::int32_t appetite = 0;  // max extra accelerators the job would take
};

inline void put_registration(util::ByteWriter& w, const Registration& r) {
  w.put<std::uint64_t>(r.job);
  w.put<std::int32_t>(r.agent.node);
  w.put<std::int32_t>(r.agent.port);
  w.put_bool(r.can_grow);
  w.put_bool(r.can_shrink);
  w.put<std::int32_t>(r.appetite);
}

inline Registration get_registration(util::ByteReader& r) {
  Registration out;
  out.job = r.get<std::uint64_t>();
  out.agent.node = r.get<std::int32_t>();
  out.agent.port = r.get<std::int32_t>();
  out.can_grow = r.get_bool();
  out.can_shrink = r.get_bool();
  out.appetite = r.get<std::int32_t>();
  return out;
}

// server -> agent (kElastOffer, a request answered with the accept flag)
// and server -> agent (kElastReconfig, notification) share one shape: the concrete resource
// delta under negotiation. For a grow offer `hosts` are the reserved nodes
// the job would gain; for a shrink offer they are the members of the dynamic
// set the scheduler wants back, identified by `client_id`. The reconfigure
// message repeats the shape with the committed values (grow: the granted
// client id).
struct Offer {
  std::uint64_t offer_id = 0;
  torque::JobId job = torque::kInvalidJob;
  OfferKind kind = OfferKind::kGrow;
  std::uint64_t client_id = 0;  // shrink: target set; reconfig-grow: grant
  std::vector<std::string> hosts;
  std::vector<std::int32_t> nodes;  // vnet node ids, same order as hosts
};

using Reconfig = Offer;  // same wire shape, committed values

inline void put_offer(util::ByteWriter& w, const Offer& o) {
  w.put<std::uint64_t>(o.offer_id);
  w.put<std::uint64_t>(o.job);
  w.put_enum(o.kind);
  w.put<std::uint64_t>(o.client_id);
  w.put_string_vector(o.hosts);
  w.put_vector<std::int32_t>(o.nodes);
}

inline Offer get_offer(util::ByteReader& r) {
  Offer out;
  out.offer_id = r.get<std::uint64_t>();
  out.job = r.get<std::uint64_t>();
  out.kind = r.get_enum<OfferKind>();
  out.client_id = r.get<std::uint64_t>();
  out.hosts = r.get_string_vector();
  out.nodes = r.get_vector<std::int32_t>();
  return out;
}

// Per-job elasticity view shipped to the scheduler inside the queue
// snapshot: what each registered job could give up or absorb, and whether a
// negotiation is already in flight (policies must not double-propose).
struct JobView {
  torque::JobId job = torque::kInvalidJob;
  bool can_grow = false;
  bool can_shrink = false;
  std::int32_t appetite = 0;
  // A scheduler-started change is in flight: an offer awaiting its ack, or
  // an accepted shrink whose release has not completed.
  bool offer_pending = false;
  // Hosts in the newest dynamic set, the one a shrink would offer (sets
  // release LIFO); 0 when the job holds none.
  std::int32_t newest_set_size = 0;
};

inline void put_job_view(util::ByteWriter& w, const JobView& v) {
  w.put<std::uint64_t>(v.job);
  w.put_bool(v.can_grow);
  w.put_bool(v.can_shrink);
  w.put<std::int32_t>(v.appetite);
  w.put_bool(v.offer_pending);
  w.put<std::int32_t>(v.newest_set_size);
}

inline JobView get_job_view(util::ByteReader& r) {
  JobView out;
  out.job = r.get<std::uint64_t>();
  out.can_grow = r.get_bool();
  out.can_shrink = r.get_bool();
  out.appetite = r.get<std::int32_t>();
  out.offer_pending = r.get_bool();
  out.newest_set_size = r.get<std::int32_t>();
  return out;
}

}  // namespace dac::elastic
