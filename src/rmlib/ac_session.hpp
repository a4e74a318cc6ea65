// The resource-management library of the paper (§II-C, Listing 1): the
// compute-node side of accelerator allocation. An AcSession is created by a
// job process on its compute node and provides:
//
//   AC_Init()      — connect to the statically allocated daemons through the
//                    published port (MPI_Comm_connect/accept), merge into the
//                    intra-communicator where the compute node is rank 0 and
//                    the accelerators ranks 1..x. Reports the waiting/connect
//                    time split of Figure 7(a).
//   AC_Get(y)      — pbs_dynget() to the server (blocking); on grant,
//                    MPI_Comm_spawn the daemons on the allocated hosts with
//                    all existing members participating, then
//                    MPI_Intercomm_merge (new ranks x+1..x+y). Reports the
//                    batch-system/MPI time split of Figure 7(b). A rejection
//                    leaves the session unchanged (granted == false).
//   AC_Free(id)    — MPI_Comm_disconnect from the set, then pbs_dynfree().
//                    Sets are released LIFO (newest first), reflecting the
//                    paper's set-wise release semantics.
//   AC_Finalize()  — shut down every associated daemon and release state.
//
// plus the handle-based computation API of Listing 1 (acMemAlloc, acMemCpy,
// acKernelCreate/SetArgs/Run, acMemFree).
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dacc/daemon.hpp"
#include "dacc/frontend.hpp"
#include "minimpi/proc.hpp"
#include "torque/ifl.hpp"
#include "torque/launch_info.hpp"
#include "torque/task_registry.hpp"

namespace dac::rmlib {

// Handle to one accelerator: its rank in the session's current merged
// communicator (stable across growth; the paper's unique handle).
struct AcHandle {
  int rank = -1;
  [[nodiscard]] bool valid() const { return rank >= 1; }
};

struct AcSessionConfig {
  torque::JobId job = torque::kInvalidJob;
  int cn_index = 0;        // this compute node's index within the job
  int static_count = 0;    // x = statically allocated accelerators
  vnet::Address server;
  std::string spawned_daemon_exe = dacc::kSpawnedDaemonExe;
  // Startup cost of spawned daemons (paper: MPI runtime starts them in
  // parallel, so the MPI share of Figure 7(b) stays flat).
  std::chrono::microseconds spawned_daemon_start_delay{500};
  dacc::TransferOptions transfer;
  // Optional: lets dynamically spawned daemons be killed by DISJOIN_JOB.
  torque::TaskRegistry* tasks = nullptr;
  // Reply-wait bound for every computation call (acMemAlloc, acKernelRun,
  // ...). Zero waits forever; nonzero turns a dead accelerator into
  // AcError(kNodeLost), after which the app calls ac_report_lost() and may
  // AC_Get a replacement. Copied into `transfer.reply_timeout` too unless
  // that is set explicitly.
  std::chrono::milliseconds call_timeout{0};
};

struct InitTiming {
  double waiting_s = 0.0;  // until the daemons' port appeared (daemons ready)
  double connect_s = 0.0;  // MPI connect + merge
  [[nodiscard]] double total_s() const { return waiting_s + connect_s; }
};

struct GetResult {
  bool granted = false;
  std::uint64_t client_id = 0;
  std::vector<AcHandle> handles;   // the y new accelerators
  torque::DynGetReply reply;       // raw server reply (incl. timing split)
  double batch_s = 0.0;            // pbs_dynget round trip
  double mpi_s = 0.0;              // spawn + merge
  [[nodiscard]] double total_s() const { return batch_s + mpi_s; }
};

class AcSession {
 public:
  AcSession(minimpi::Proc& proc, AcSessionConfig config);
  ~AcSession();

  AcSession(const AcSession&) = delete;
  AcSession& operator=(const AcSession&) = delete;

  // ---- resource management API (paper naming) -------------------------
  std::vector<AcHandle> ac_init(InitTiming* timing = nullptr);
  [[nodiscard]] GetResult ac_get(int count) { return ac_get(count, count); }
  // Partial-allocation extension (paper future work §VI): accepts any grant
  // in [min_count, count]; the number of handles returned tells the caller
  // what it actually received.
  [[nodiscard]] GetResult ac_get(int count, int min_count);
  void ac_free(std::uint64_t client_id);
  // Releases the newest dynamic set after its accelerators died (the
  // computation API threw AcError(kNodeLost)). Unlike AC_Free this never
  // performs the collective disconnect — dead peers would hang it — and
  // tolerates a failing dynfree (the server may have reclaimed the slots
  // already). The session falls back to the previous communicator, after
  // which AC_Get can acquire a replacement set.
  void ac_report_lost(std::uint64_t client_id);
  void ac_finalize();

  // ---- elastic negotiation (src/elastic) ------------------------------
  // Attaches a dynamic set the batch system granted WITHOUT a pbs_dynget —
  // an accepted elastic grow offer: the kElastReconfig message carries the
  // client id and placement, and the slots are already accounted to the job.
  // Spawns the daemons and merges them in exactly like AC_Get's MPI phase.
  std::vector<AcHandle> ac_attach(std::uint64_t client_id,
                                  const std::vector<vnet::NodeId>& placement);
  // Drops the newest dynamic set after the batch system reclaimed it — an
  // accepted elastic shrink offer. Like AC_Free this pops the generation,
  // but no pbs_dynfree is sent (the server releases the slots itself) and
  // no collective disconnect runs (the moms may already be tearing the
  // daemons down; a blocking collective with dying peers would hang).
  void ac_detach(std::uint64_t client_id);

  // Collective AC_Get over the job's compute-node world (paper §III-D):
  // rank 0 aggregates every node's count into a single pbs_dynget, so the
  // server handles one request instead of k serialized ones. All-or-nothing;
  // every participant shares one client-id and must release collectively.
  // Nodes may pass count 0 (they still participate in the collective).
  [[nodiscard]] GetResult ac_get_collective(const minimpi::Comm& cn_world,
                                            int count);
  void ac_free_collective(const minimpi::Comm& cn_world,
                          std::uint64_t client_id);

  [[nodiscard]] bool initialized() const { return initialized_; }
  [[nodiscard]] int accelerator_count() const {
    return current_.size() - 1;
  }
  // Handles of every currently associated accelerator, rank order.
  [[nodiscard]] std::vector<AcHandle> handles() const;

  // ---- computation API (paper Listing 1) --------------------------------
  gpusim::DevicePtr ac_mem_alloc(AcHandle ac, std::uint64_t size);
  void ac_mem_free(AcHandle ac, gpusim::DevicePtr ptr);
  void ac_memcpy_h2d(AcHandle ac, gpusim::DevicePtr dst,
                     std::span<const std::byte> src);
  util::Bytes ac_memcpy_d2h(AcHandle ac, gpusim::DevicePtr src,
                            std::uint64_t size);
  dacc::KernelHandle ac_kernel_create(AcHandle ac, const std::string& name);
  void ac_kernel_set_args(AcHandle ac, dacc::KernelHandle kernel,
                          util::Bytes args);
  void ac_kernel_run(AcHandle ac, dacc::KernelHandle kernel,
                     gpusim::Dim3 grid, gpusim::Dim3 block);
  dacc::frontend::DeviceInfo ac_device_info(AcHandle ac);

  [[nodiscard]] const minimpi::Comm& current_comm() const { return current_; }

 private:
  struct Generation {
    std::uint64_t client_id = 0;
    minimpi::Comm inter;     // parent-side spawn intercomm
    minimpi::Comm previous;  // merged comm before this generation
    int first_rank = 0;      // first rank of the set in the merged comm
    int count = 0;
  };

  void check_handle(AcHandle ac) const;
  void broadcast_control(int tag, const util::Bytes& payload);
  // Spawns daemons on `placement` and merges them in as a new generation.
  std::vector<AcHandle> attach_set(std::uint64_t client_id,
                                   const std::vector<vnet::NodeId>& placement);
  void release_newest(std::uint64_t client_id, bool send_dynfree);

  minimpi::Proc& proc_;
  AcSessionConfig config_;
  torque::Ifl ifl_;
  minimpi::Comm current_;  // merged comm; rank 0 = this compute node
  std::vector<Generation> generations_;
  bool initialized_ = false;
  bool finalized_ = false;
};

}  // namespace dac::rmlib
