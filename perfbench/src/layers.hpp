// The traced per-layer run: replays a workload's generated inputs
// through each layer's public functions in-process, with spans around
// every call, and derives the per-layer metrics from spans and counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace evbench {

struct ReplayPlan {
  enum class Service : std::uint8_t {
    kPairs,    ///< full batch per trace, then the workload's pair queries
    kCold,     ///< full batch, exact races and deadlocks per fresh trace
    kAnytime,  ///< the questions only
  };
  const std::vector<evord::Trace>* traces = nullptr;
  const std::vector<std::string>* texts = nullptr;
  std::size_t num_traces = 0;  ///< replay the first num_traces traces
  /// Budgets the daemon's sweeps run under for this workload.
  evord::ExactOptions sweep_options;
  Service service = Service::kPairs;
  std::vector<PairRequest> pairs;
  /// Anytime questions over the first num_traces traces (the resilience,
  /// SAT-oracle and witness layers).
  std::vector<AnytimeQuestion> questions;
};

/// MHB/CCW questions drawn from exact references (warm and cold traces).
std::vector<AnytimeQuestion> questions_from_reference(
    const TraceInputs& in, std::size_t num_traces, std::size_t per_trace,
    std::uint64_t seed);

void replay_layers(const ReplayPlan& plan, Tracer& tracer,
                   std::vector<Metric>& out);

/// Transport probes: a single-client warm pair_query round trip through
/// the daemon against the same queries in-process, a socketpair frame
/// echo, a ThreadPool handoff, and the daemon's shed/reject counters.
void transport_probes(const DaemonProcess& daemon, const TraceInputs& warm,
                      std::uint64_t seed, Tracer& tracer,
                      std::vector<Metric>& out);

}  // namespace evbench
