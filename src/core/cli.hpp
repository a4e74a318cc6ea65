// TORQUE-style textual renderings of batch-system state: qstat for jobs,
// pbsnodes for nodes. Used by examples and handy when debugging a virtual
// cluster interactively.
#pragma once

#include <string>
#include <vector>

#include "torque/job.hpp"
#include "torque/node_db.hpp"

namespace dac::core {

// qstat-like table:
//   Job ID  Name      Owner  State  Nodes  ACs  Queue[s]  Run[s]
std::string render_qstat(const std::vector<torque::JobInfo>& jobs);

// pbsnodes-like table:
//   Host  Kind  State  Slots  Jobs
std::string render_pbsnodes(const std::vector<torque::NodeStatus>& nodes);

}  // namespace dac::core
