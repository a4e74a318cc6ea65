#include "arm/arm.hpp"

#include "svc/caller.hpp"
#include "svc/deadlines.hpp"
#include "svc/service_loop.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace dac::arm {

namespace {
const util::Logger kLog("arm");

constexpr auto msg(std::uint32_t code) {
  return static_cast<torque::MsgType>(code);
}
}  // namespace

PrototypeArm::PrototypeArm(vnet::Node& node, std::vector<PoolEntry> pool)
    : node_(node), endpoint_(node.open_endpoint()) {
  pool_.reserve(pool.size());
  for (auto& e : pool) pool_.push_back(Slot{std::move(e), 0});
}

void PrototypeArm::run(vnet::Process& proc) {
  proc.adopt_mailbox(endpoint_->mailbox_weak());
  kLog.info("prototype ARM up with {} accelerator(s)", pool_.size());

  svc::ServiceConfig cfg;
  cfg.name = "arm";
  svc::ServiceLoop loop(*endpoint_, cfg, &metrics_);

  loop.on(msg(kArmAlloc),
          [this](const svc::Request& req, svc::Responder& resp) {
            util::ByteReader r(req.body);
            util::ByteWriter reply;
            const auto count = r.get<std::int32_t>();
            std::vector<std::size_t> free_idx;
            for (std::size_t i = 0;
                 i < pool_.size() &&
                 static_cast<int>(free_idx.size()) < count;
                 ++i) {
              if (pool_[i].held_by == 0) free_idx.push_back(i);
            }
            if (count <= 0 || static_cast<int>(free_idx.size()) < count) {
              reply.put_bool(false);
              reply.put<std::uint64_t>(0);
              reply.put<std::uint32_t>(0);
            } else {
              const auto set = next_set_++;
              reply.put_bool(true);
              reply.put<std::uint64_t>(set);
              reply.put<std::uint32_t>(static_cast<std::uint32_t>(count));
              for (auto i : free_idx) {
                pool_[i].held_by = set;
                reply.put<std::int32_t>(pool_[i].entry.node);
                reply.put_string(pool_[i].entry.hostname);
              }
              sets_[set] = std::move(free_idx);
            }
            resp.ok(std::move(reply).take());
          });

  loop.on(msg(kArmFree), [this](const svc::Request& req, svc::Responder& resp) {
    util::ByteReader r(req.body);
    const auto set = r.get<std::uint64_t>();
    if (auto it = sets_.find(set); it != sets_.end()) {
      for (auto i : it->second) pool_[i].held_by = 0;
      sets_.erase(it);
      resp.ok();
    } else {
      resp.error(torque::ReplyCode::kBadRequest,
                 "ARM: unknown set id " + std::to_string(set));
    }
  });

  loop.on(msg(kArmReclaim),
          [this](const svc::Request& req, svc::Responder& resp) {
            util::ByteReader r(req.body);
            const auto count = r.get<std::int32_t>();
            int freed = 0;
            for (const auto& s : pool_) freed += s.held_by == 0 ? 1 : 0;
            std::vector<std::uint64_t> revoked;
            // Newest set first (highest id): the most recent holder loses
            // its accelerators, mirroring the LIFO release order sessions
            // use voluntarily.
            while (freed < count && !sets_.empty()) {
              auto it = std::prev(sets_.end());
              for (auto i : it->second) pool_[i].held_by = 0;
              freed += static_cast<int>(it->second.size());
              revoked.push_back(it->first);
              kLog.warn("ARM reclaim: revoked set {} ({} accelerator(s))",
                        it->first, it->second.size());
              sets_.erase(it);
            }
            util::ByteWriter reply;
            reply.put_bool(freed >= count);
            reply.put_vector<std::uint64_t>(revoked);
            resp.ok(std::move(reply).take());
          });

  loop.on(msg(kArmStatus), [this](const svc::Request&, svc::Responder& resp) {
    util::ByteWriter reply;
    int free = 0;
    for (const auto& s : pool_) free += s.held_by == 0 ? 1 : 0;
    reply.put<std::int32_t>(static_cast<std::int32_t>(pool_.size()));
    reply.put<std::int32_t>(free);
    reply.put<std::int32_t>(static_cast<std::int32_t>(sets_.size()));
    resp.ok(std::move(reply).take());
  });

  try {
    loop.run();
  } catch (const util::StoppedError&) {
    // cooperative shutdown
  }
}

ArmClient::ArmClient(vnet::Node& node, vnet::Address arm)
    : caller_(node, arm), arm_(arm) {}

util::Bytes ArmClient::call(std::uint32_t type, util::Bytes body) {
  return caller_.call(msg(type), std::move(body),
                      {.deadline = svc::deadlines::kControl});
}

ArmAllocation ArmClient::alloc(int count) {
  util::ByteWriter w;
  w.put<std::int32_t>(count);
  auto payload = call(kArmAlloc, std::move(w).take());
  util::ByteReader r(payload);
  ArmAllocation out;
  out.granted = r.get_bool();
  out.set_id = r.get<std::uint64_t>();
  const auto n = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n; ++i) {
    out.nodes.push_back(r.get<std::int32_t>());
    out.hostnames.push_back(r.get_string());
  }
  return out;
}

void ArmClient::free_set(std::uint64_t set_id) {
  util::ByteWriter w;
  w.put<std::uint64_t>(set_id);
  // An unknown set id comes back as an error reply -> svc::CallError.
  (void)call(kArmFree, std::move(w).take());
}

std::vector<std::uint64_t> ArmClient::reclaim(int count) {
  util::ByteWriter w;
  w.put<std::int32_t>(count);
  auto payload = call(kArmReclaim, std::move(w).take());
  util::ByteReader r(payload);
  (void)r.get_bool();  // satisfied flag; revoked list says what happened
  return r.get_vector<std::uint64_t>();
}

ArmPoolStatus ArmClient::status() {
  auto payload = call(kArmStatus, {});
  util::ByteReader r(payload);
  ArmPoolStatus s;
  s.total = r.get<std::int32_t>();
  s.free = r.get<std::int32_t>();
  s.sets_outstanding = r.get<std::int32_t>();
  return s;
}

}  // namespace dac::arm
