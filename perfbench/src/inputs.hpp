// Seeded inputs of the three workloads and their reference answers.
//
// Every input is a pure function of the seed.  The references are
// computed in-process through the engines directly (compute_exact,
// detect_races_exact, analyze_deadlocks, SatOracle) — never through the
// service layer the daemon answers from — so a reply that disagrees
// with its reference is a wrong answer, not a shared bug.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "feasible/deadlock.hpp"
#include "ordering/exact.hpp"
#include "race/race_detector.hpp"
#include "resilience/anytime.hpp"
#include "trace/trace.hpp"

namespace evbench {

/// The exact answers the daemon's pair, batch, race and deadlock
/// queries must reproduce for one trace.
struct TraceReference {
  std::array<evord::OrderingRelations, 3> relations;  ///< by Semantics
  evord::RaceReport races;
  evord::DeadlockReport deadlock;

  bool truncated() const;
};

/// All three semantics, exact races (race semantics: causal order
/// without data edges) and deadlocks under `options`' budgets.
TraceReference exact_reference(const evord::Trace& trace,
                               const evord::ExactOptions& options);
bool expected_answer(const TraceReference& ref,
                     const evord::daemon::PairQuerySpec& query);

struct TraceInputs {
  std::vector<evord::Trace> traces;
  std::vector<std::string> texts;  ///< what the daemon receives
  std::vector<TraceReference> refs;
};

/// Small traces (16 events, 4 processes) whose full analysis is cheap:
/// the cache-warm pair workloads target them.  Only traces with 100 to
/// 160 reachable synchronization states (sync_state_count) are drawn.
TraceInputs small_traces(std::uint64_t seed, std::size_t count);

/// The number of distinct synchronization states (process positions,
/// semaphore counts, posted flags) reachable from the trace's initial
/// state when every feasible event order is explored, with shared-data
/// dependences respected; stops counting once it exceeds `cap`.  A
/// structural size of the schedule space, computed here rather than by
/// the engines, so the inputs it screens do not change with them.
std::size_t sync_state_count(const evord::Trace& trace, std::size_t cap);

/// The fresh traces of cold_traces: `count` distinct traces picked by
/// the seed from the committed universe (perfbench/data/
/// cold_universe.txt), a mix of random semaphore traces (6 processes, 32
/// events) and random Post/Wait traces (4 processes, 28 events) whose
/// sweeps were each at most 10 000 states when the universe was written.
/// The file, not the engines under test, decides which traces are in:
/// unscreened, one trace's cost spans four orders of magnitude.
TraceInputs cold_pool(std::uint64_t seed, std::size_t count);

/// Screens candidates in index order until `kept` pass the band and
/// writes the universe file that cold_pool reads.
void emit_cold_universe(const std::string& path, std::size_t kept);

struct PairRequest {
  std::uint32_t trace = 0;
  evord::daemon::PairQuerySpec spec;
};

/// Uniform over trace x relation x semantics x ordered event pair.
std::vector<PairRequest> pair_requests(std::uint64_t seed,
                                       const std::vector<evord::Trace>& traces,
                                       std::size_t count);

/// Every ordered pair (a != b) under all three semantics; the relation
/// rotates through Table 1 so the batch covers all six.
std::vector<evord::daemon::PairQuerySpec> full_batch(const evord::Trace& trace);

/// One anytime question: `which` 0 = MHB under interleaving semantics,
/// 1 = CCW (causal).
struct AnytimeQuestion {
  std::uint32_t trace = 0;
  std::uint8_t which = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  evord::VerdictState expected = evord::VerdictState::kUnknown;

  evord::Semantics semantics() const {
    return which == 0 ? evord::Semantics::kInterleaving
                      : evord::Semantics::kCausal;
  }
};

struct AnytimeInputs {
  std::vector<evord::Trace> traces;
  std::vector<std::string> texts;
  /// One question set per round, grouped by trace.
  std::vector<std::vector<AnytimeQuestion>> rounds;
};

/// `rounds` rounds over wide_fork 10x3 and 12x3 (4x3 at smoke size),
/// each asking 64 distinct questions per trace (5 MHB : 3 CCW,
/// stratified by direction); no question repeats across rounds.  The reference is the exact engine where it
/// finishes within a budget and the replay-validated SatOracle
/// elsewhere; a question neither settles is redrawn.
AnytimeInputs anytime_inputs(std::uint64_t seed, std::size_t rounds,
                             bool smoke);

}  // namespace evbench
