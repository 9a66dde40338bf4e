// The three workloads, each driven through a live evordd over a
// Unix-domain socket by closed-loop clients.
#pragma once

#include "harness.hpp"

namespace evbench {

/// Runs `config.workload`; trace == false fills the end-to-end metrics,
/// trace == true the per-layer ones.  Throws std::invalid_argument for
/// an unknown workload name.
Result run_workload(const Config& config);

}  // namespace evbench
