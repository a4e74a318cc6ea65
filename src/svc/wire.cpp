#include "svc/wire.hpp"

#include <atomic>
#include <cstdio>

namespace dac::svc {

namespace {
std::atomic<std::uint64_t> g_next_request_id{1};
}  // namespace

std::uint64_t next_request_id() {
  return g_next_request_id.fetch_add(1, std::memory_order_relaxed);
}

util::Bytes envelope(std::uint64_t id, const util::Bytes& body) {
  return envelope(id, trace::current(), body);
}

util::Bytes envelope(std::uint64_t id, trace::Context ctx,
                     const util::Bytes& body) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put<std::uint64_t>(ctx.trace);
  w.put<std::uint64_t>(ctx.span);
  w.put_raw(body.data(), body.size());
  return std::move(w).take();
}

Request parse_request(const vnet::Message& msg) {
  util::ByteReader r(msg.payload);
  Request req;
  req.id = r.get<std::uint64_t>();
  req.ctx.trace = r.get<std::uint64_t>();
  req.ctx.span = r.get<std::uint64_t>();
  req.from = msg.from;
  req.type = static_cast<MsgType>(msg.type);
  req.body.assign(msg.payload.begin() + static_cast<std::ptrdiff_t>(
                                            msg.payload.size() - r.remaining()),
                  msg.payload.end());
  return req;
}

util::Bytes make_ok_reply(std::uint64_t id, const util::Bytes& body) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put_enum(ReplyCode::kOk);
  w.put_raw(body.data(), body.size());
  return std::move(w).take();
}

util::Bytes make_error_reply(std::uint64_t id, ReplyCode code,
                             const std::string& message) {
  util::ByteWriter w;
  w.put<std::uint64_t>(id);
  w.put_enum(code);
  w.put_string(message);
  return std::move(w).take();
}

void reply_ok_to(vnet::Endpoint& ep, const vnet::Address& to,
                 std::uint64_t request_id, util::Bytes body) {
  ep.send(to, as_u32(MsgType::kReply), make_ok_reply(request_id, body));
}

void reply_ok(vnet::Endpoint& ep, const Request& req, util::Bytes body) {
  reply_ok_to(ep, req.from, req.id, std::move(body));
}

void reply_error_to(vnet::Endpoint& ep, const vnet::Address& to,
                    std::uint64_t request_id, ReplyCode code,
                    const std::string& message) {
  ep.send(to, as_u32(MsgType::kReply),
          make_error_reply(request_id, code, message));
}

void reply_error(vnet::Endpoint& ep, const Request& req, ReplyCode code,
                 const std::string& message) {
  reply_error_to(ep, req.from, req.id, code, message);
}

void notify(vnet::Endpoint& ep, const vnet::Address& to, MsgType type,
            util::Bytes body) {
  ep.send(to, as_u32(type), envelope(next_request_id(), body));
}

std::optional<util::Bytes> parse_reply(const vnet::Message& msg,
                                       std::uint64_t id) {
  if (msg.type != as_u32(MsgType::kReply)) return std::nullopt;
  util::ByteReader r(msg.payload);
  if (r.get<std::uint64_t>() != id) return std::nullopt;  // stale reply
  const auto code = r.get_enum<ReplyCode>();
  if (code == ReplyCode::kOk) {
    return util::Bytes(msg.payload.begin() +
                           static_cast<std::ptrdiff_t>(msg.payload.size() -
                                                       r.remaining()),
                       msg.payload.end());
  }
  throw CallError(code, r.get_string());
}

std::string msg_type_name(std::uint32_t type) {
  switch (type) {
    case as_u32(MsgType::kSubmit): return "SUBMIT";
    case as_u32(MsgType::kStatJobs): return "STAT_JOBS";
    case as_u32(MsgType::kStatJob): return "STAT_JOB";
    case as_u32(MsgType::kWaitJob): return "WAIT_JOB";
    case as_u32(MsgType::kStatNodes): return "STAT_NODES";
    case as_u32(MsgType::kDeleteJob): return "DELETE_JOB";
    case as_u32(MsgType::kAlterJob): return "ALTER_JOB";
    case as_u32(MsgType::kDynGet): return "DYN_GET";
    case as_u32(MsgType::kDynFree): return "DYN_FREE";
    case as_u32(MsgType::kRegisterNode): return "REGISTER_NODE";
    case as_u32(MsgType::kRegisterScheduler): return "REGISTER_SCHED";
    case as_u32(MsgType::kJobComplete): return "JOB_COMPLETE";
    case as_u32(MsgType::kSchedWake): return "SCHED_WAKE";
    case as_u32(MsgType::kRunJob): return "RUN_JOB";
    case as_u32(MsgType::kGetSched): return "GET_SCHED";
    case as_u32(MsgType::kDynDecide): return "DYN_DECIDE";
    case as_u32(MsgType::kMomRunJob): return "MOM_RUN_JOB";
    case as_u32(MsgType::kMomDynAdd): return "MOM_DYN_ADD";
    case as_u32(MsgType::kMomRelease): return "MOM_RELEASE";
    case as_u32(MsgType::kMomKillJob): return "MOM_KILL_JOB";
    case as_u32(MsgType::kJoinJob): return "JOIN_JOB";
    case as_u32(MsgType::kDynJoinJob): return "DYNJOIN_JOB";
    case as_u32(MsgType::kDisjoinJob): return "DISJOIN_JOB";
    case as_u32(MsgType::kJobUpdate): return "JOB_UPDATE";
    case as_u32(MsgType::kTaskDone): return "TASK_DONE";
    case as_u32(MsgType::kMomHeartbeat): return "MOM_HEARTBEAT";
    case as_u32(MsgType::kBackendHeartbeat): return "BACKEND_HEARTBEAT";
    case as_u32(MsgType::kReply): return "REPLY";
    case as_u32(MsgType::kEvNodeSuspect): return "EV_NODE_SUSPECT";
    case as_u32(MsgType::kEvNodeDown): return "EV_NODE_DOWN";
    case as_u32(MsgType::kEvNodeUp): return "EV_NODE_UP";
    case as_u32(MsgType::kEvJobRequeue): return "EV_JOB_REQUEUE";
    case as_u32(MsgType::kEvJobFailed): return "EV_JOB_FAILED";
    case as_u32(MsgType::kEvAcReclaim): return "EV_AC_RECLAIM";
    case as_u32(MsgType::kElastRegister): return "ELAST_REGISTER";
    case as_u32(MsgType::kElastOffer): return "ELAST_OFFER";
    case as_u32(MsgType::kElastReconfig): return "ELAST_RECONFIG";
    // Fault-injection event codes (src/faults/fault_plan.hpp); raw hex so
    // svc does not depend on the faults library for a string table.
    case 0xFA000001: return "EV_FAULT_DROP";
    case 0xFA000002: return "EV_FAULT_DUP";
    case 0xFA000003: return "EV_FAULT_DELAY";
    case 0xFA000004: return "EV_NODE_CRASH";
    case 0xFA000005: return "EV_NODE_RESTART";
    case 0xFA000006: return "EV_LINK_PARTITION";
    case 0x41524D01: return "ARM_ALLOC";
    case 0x41524D02: return "ARM_FREE";
    case 0x41524D03: return "ARM_STATUS";
    case 0x41524D04: return "ARM_RECLAIM";
    case 0x41524D10: return "ARM_REPLY";
    default: break;
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08X", type);
  return buf;
}

}  // namespace dac::svc
