// Wire protocol of the batch system. All batch traffic uses vnet messages
// with these type codes and a [request-id, body] envelope so callers can
// match replies. The message names deliberately mirror the paper's protocol
// vocabulary: JOIN_JOB, DYNJOIN_JOB, DISJOIN_JOB, pbs_dynget, pbs_dynfree.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "vnet/message.hpp"

namespace dac::torque {

// vnet Message.type values. Grouped by conversation.
enum class MsgType : std::uint32_t {
  // client / mom / scheduler -> server
  kSubmit = 0x5430'0001,      // JobSpec -> job id
  kStatJobs,                  // -> vector<JobInfo>
  kStatNodes,                 // -> vector<NodeStatus>
  kDeleteJob,                 // job id -> ok
  kAlterJob,                  // job id + attribute updates (qalter)
  kDynGet,                    // job id, count, min count, kind -> DynGetReply
  kDynFree,                   // job id, client id -> ok
  kRegisterNode,              // NodeStatus (from mom at startup)
  kRegisterScheduler,         // scheduler endpoint announces itself
  kJobComplete,               // MS -> server: job id, exit status
  kStatJob,                   // job id -> found flag + JobInfo
  kWaitJob,                   // job id, state, budget -> held until reached

  // scheduler <-> server
  // Consumed by the scheduler's plain wake endpoint, not a ServiceLoop.
  kSchedWake = 0x5430'0100,   // NOLINT-DACSCHED(handler-coverage)
  // One state fetch (full or delta), one dynamic-decision batch (dynget
  // grants/rejects and elastic proposals) and one static-start batch per
  // cycle (docs/SCHEDULING.md). Wire structs live in sched_feed.hpp.
  kRunJob,                    // scheduler -> server: vector<RunStart>
  kGetSched,                  // scheduler -> server: epoch -> SchedDelta
  kDynDecide,                 // scheduler -> server: vector<DynDecision>

  // server -> mom. The MS answers MOM_RUN_JOB once the job launched (an
  // error once a failed join killed it) and MOM_RELEASE once the set's
  // moms were disjoined.
  kMomRunJob = 0x5430'0200,   // full job info; recipient becomes MS
  kMomDynAdd,                 // MS: job id, client id, new accel hosts
  kMomRelease,                // MS: job id, client id, hosts to disjoin
  kMomKillJob,                // any mom: job id

  // mom <-> mom (the paper's join protocol); sisters answer with kReply.
  kJoinJob = 0x5430'0300,     // MS -> sister: job info
  kDynJoinJob,                // MS -> new accel mom: job id, client id
  kDisjoinJob,                // MS -> departing mom: job id, client id
  kJobUpdate,                 // MS -> existing sisters: updated host set

  // job task wrapper -> mom
  kTaskDone = 0x5430'0400,    // rank finished: job id, rank

  // mom -> server, periodic liveness (fault-tolerance extension)
  kMomHeartbeat = 0x5430'0450,  // hostname
  kBackendHeartbeat,            // dacc backend daemon -> server: hostname

  // generic reply envelope
  kReply = 0x5430'0500,

  // Synthetic event codes: never sent on the wire. They exist so the fault
  // subsystem's detection/recovery events surface in the same per-RPC
  // MetricsRegistry table as real traffic (record() with latency 0).
  kEvNodeSuspect = 0x5430'0600,
  kEvNodeDown,
  kEvNodeUp,
  kEvJobRequeue,
  kEvJobFailed,
  kEvAcReclaim,

  // Elastic negotiation (scheduler-initiated grow/shrink, src/elastic):
  // offer -> ack/nack -> reconfigure. Maui proposes inside kDynDecide.
  // Register is handled by the server's ServiceLoop; Offer/Reconfig by the
  // job-side ElasticAgent loop, which answers an offer with its accept flag
  // as the reply. Wire structs live in elastic/protocol.hpp.
  kElastRegister = 0x5430'0700,  // agent -> server: job, address, caps
  kElastOffer,                   // server -> agent: offer -> accept flag
  kElastReconfig,                // server -> agent: committed new footprint
};

inline constexpr std::uint32_t as_u32(MsgType t) {
  return static_cast<std::uint32_t>(t);
}

// Reply status codes carried in the reply envelope.
enum class ReplyCode : std::uint8_t {
  kOk = 0,
  kError = 1,          // generic failure; message string follows
  kRejected = 2,       // dynamic request rejected (not enough resources)
  kUnknownJob = 3,
  kBadRequest = 4,
};

// Result of pbs_dynget: either rejected, or the set of allocated accelerator
// hosts plus the client-id identifying the set (paper §III-D). The server
// also reports its queue-wait and service time split so the benchmark
// harness can reproduce the stacked bars of Figures 7(b)/8.
struct DynGetReply {
  bool granted = false;
  std::uint64_t client_id = 0;
  std::vector<std::string> hosts;        // accelerator hostnames
  std::vector<std::int32_t> host_nodes;  // vnet node ids, same order
  double queue_wait_seconds = 0.0;   // arrival -> scheduler pickup
  double service_seconds = 0.0;      // scheduler pickup -> reply sent
};

void put_dynget_reply(util::ByteWriter& w, const DynGetReply& r);
[[nodiscard]] DynGetReply get_dynget_reply(util::ByteReader& r);

}  // namespace dac::torque
