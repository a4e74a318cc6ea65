#include "core/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace dac::core {

namespace {

std::string fixed(double v) {
  if (v < 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

void row(std::ostringstream& out, const std::vector<std::string>& cells,
         const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << cells[i];
    const int pad = widths[i] - static_cast<int>(cells[i].size());
    for (int p = 0; p < std::max(pad, 1); ++p) out << ' ';
  }
  out << '\n';
}

}  // namespace

std::string render_qstat(const std::vector<torque::JobInfo>& jobs) {
  const std::vector<int> w{8, 16, 10, 6, 6, 5, 9, 8};
  std::ostringstream out;
  row(out, {"Job ID", "Name", "Owner", "State", "Nodes", "ACs", "Queue[s]",
            "Run[s]"},
      w);
  row(out, {"------", "----", "-----", "-----", "-----", "---", "--------",
            "------"},
      w);
  for (const auto& j : jobs) {
    const double queue_s =
        j.start_time >= 0.0 ? j.start_time - j.submit_time : -1.0;
    const double run_s =
        j.start_time >= 0.0
            ? (j.end_time >= 0.0 ? j.end_time - j.start_time : -1.0)
            : -1.0;
    const int acs = static_cast<int>(j.accel_hosts.size() +
                                     j.dyn_accel_hosts.size());
    row(out,
        {std::to_string(j.id), j.spec.name.substr(0, 15), j.spec.owner,
         torque::job_state_name(j.state),
         std::to_string(j.spec.resources.nodes), std::to_string(acs),
         fixed(queue_s), fixed(run_s)},
        w);
  }
  return out.str();
}

std::string render_pbsnodes(const std::vector<torque::NodeStatus>& nodes) {
  const std::vector<int> w{10, 13, 7, 10, 20};
  std::ostringstream out;
  row(out, {"Host", "Kind", "State", "Slots", "Jobs"}, w);
  row(out, {"----", "----", "-----", "-----", "----"}, w);
  for (const auto& n : nodes) {
    std::string jobs;
    for (const auto j : n.jobs) {
      if (!jobs.empty()) jobs += ",";
      jobs += std::to_string(j);
    }
    if (jobs.empty()) jobs = "-";
    row(out,
        {n.hostname,
         n.kind == torque::NodeKind::kCompute ? "compute" : "accelerator",
         n.up ? "up" : "down",
         std::to_string(n.used) + "/" + std::to_string(n.np), jobs},
        w);
  }
  return out.str();
}

}  // namespace dac::core
