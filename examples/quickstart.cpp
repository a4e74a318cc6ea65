// Quickstart: boot a DAC cluster (1 head node, 1 compute node, 6
// network-attached accelerators — the paper's testbed), submit a job that
// statically allocates two accelerators, offload a vector addition to both,
// and print the result. This walks the whole paper pipeline: qsub with the
// acpn resource -> Maui -> mother superior -> daemon start -> AC_Init ->
// computation API -> AC_Finalize -> job completion.
#include <cstdio>
#include <numeric>
#include <span>
#include <vector>

#include "core/cluster.hpp"
#include "svc/metrics.hpp"

using namespace dac;

namespace {

// Offloads c = a + b to the accelerator behind `ac`.
std::vector<double> remote_vector_add(rmlib::AcSession& s, rmlib::AcHandle ac,
                                      const std::vector<double>& a,
                                      const std::vector<double>& b) {
  const auto n = a.size();
  const auto bytes = n * sizeof(double);
  const auto da = s.ac_mem_alloc(ac, bytes);
  const auto db = s.ac_mem_alloc(ac, bytes);
  const auto dc = s.ac_mem_alloc(ac, bytes);
  s.ac_memcpy_h2d(ac, da, std::as_bytes(std::span(a)));
  s.ac_memcpy_h2d(ac, db, std::as_bytes(std::span(b)));

  const auto kernel = s.ac_kernel_create(ac, "vector_add");
  util::ByteWriter args;
  args.put<std::uint64_t>(dc);
  args.put<std::uint64_t>(da);
  args.put<std::uint64_t>(db);
  args.put<std::uint64_t>(n);
  s.ac_kernel_set_args(ac, kernel, std::move(args).take());
  s.ac_kernel_run(ac, kernel, {static_cast<std::uint32_t>((n + 255) / 256),
                               1, 1}, {256, 1, 1});

  auto out = s.ac_memcpy_d2h(ac, dc, bytes);
  std::vector<double> c(n);
  std::memcpy(c.data(), out.data(), bytes);
  s.ac_mem_free(ac, da);
  s.ac_mem_free(ac, db);
  s.ac_mem_free(ac, dc);
  return c;
}

}  // namespace

int main() {
  std::printf("booting the DAC cluster (1 CN + 6 ACs + head node)...\n");
  core::DacCluster cluster(core::DacClusterConfig::paper_testbed());

  cluster.register_program("quickstart", [](core::JobContext& ctx) {
    auto& s = ctx.session();
    rmlib::InitTiming timing;
    auto handles = s.ac_init(&timing);
    std::printf("AC_Init: %zu accelerator(s) attached in %.3fs "
                "(%.3fs waiting, %.3fs connecting)\n",
                handles.size(), timing.total_s(), timing.waiting_s,
                timing.connect_s);

    constexpr std::size_t kN = 1 << 16;
    std::vector<double> a(kN), b(kN);
    std::iota(a.begin(), a.end(), 0.0);
    std::iota(b.begin(), b.end(), 1.0);

    // Split the work across both statically allocated accelerators.
    const std::size_t half = kN / 2;
    std::vector<double> a0(a.begin(), a.begin() + half);
    std::vector<double> b0(b.begin(), b.begin() + half);
    std::vector<double> a1(a.begin() + half, a.end());
    std::vector<double> b1(b.begin() + half, b.end());

    auto c0 = remote_vector_add(s, handles[0], a0, b0);
    auto c1 = remote_vector_add(s, handles[1], a1, b1);

    std::size_t errors = 0;
    for (std::size_t i = 0; i < half; ++i) {
      if (c0[i] != a0[i] + b0[i]) ++errors;
      if (c1[i] != a1[i] + b1[i]) ++errors;
    }
    std::printf("vector_add on 2 remote accelerators: %zu elements, "
                "%zu errors\n", kN, errors);
    s.ac_finalize();
  });

  const auto id = cluster.submit_program("quickstart", /*nodes=*/1,
                                         /*acpn=*/2);
  std::printf("submitted job %llu (qsub -l nodes=1:acpn=2)\n",
              static_cast<unsigned long long>(id));
  auto info = cluster.wait_job(id);
  if (!info) {
    std::fprintf(stderr, "job did not complete\n");
    return 1;
  }
  std::printf("job %llu complete: compute=[%s] accelerators=[",
              static_cast<unsigned long long>(id),
              info->compute_hosts.front().c_str());
  for (const auto& h : info->accel_hosts) std::printf("%s ", h.c_str());
  std::printf("]\n");

  std::printf("\npbs_server per-RPC metrics:\n%s",
              svc::render_metrics(cluster.metrics_snapshot()).c_str());
  return 0;
}
