// Data-race detection — the application the paper closes with: "an
// implication of these results is that exhaustively detecting all data
// races potentially exhibited by a given program execution is an
// intractable problem."
//
// A candidate race is a pair of conflicting shared accesses in different
// processes.  Three detectors are provided:
//
//   * exact      — the pair races iff it could-have-been-concurrent
//                  (CCW under causal semantics without data edges,
//                  quantifying over every feasible execution).
//                  Exponential; exhaustive.  When the trace's data
//                  edges are schedule-invariant the full-order class
//                  sweep behind the causal/interval relations yields
//                  the same bits (ordering/exact.hpp), so a service
//                  session pays one sweep for relations and races.
//   * observed   — vector clocks over the one observed execution, the
//                  classic polynomial detector.  Misses races that only
//                  alternate schedules expose.
//   * guaranteed — conflicting pairs not ordered by the must-have
//                  relation of a sound approximation (HMW for semaphore
//                  traces, EGP for event-style traces): a superset of the
//                  exact races on §5.3-style feasibility, never missing a
//                  race but possibly reporting spurious ones.
#pragma once

#include <string>
#include <vector>

#include "ordering/exact.hpp"
#include "trace/trace.hpp"

namespace evord {

enum class RaceDetector : std::uint8_t {
  kExact,
  kObserved,
  kGuaranteed,
};

const char* to_string(RaceDetector detector);

struct Race {
  EventId a = kNoEvent;
  EventId b = kNoEvent;  ///< a < b
  /// True iff the two events were causally ordered in the observed
  /// execution (the race needed an alternate schedule to surface).
  bool hidden_in_observed = false;
};

struct RaceReport {
  RaceDetector detector = RaceDetector::kExact;
  std::vector<Race> races;
  std::size_t candidate_pairs = 0;  ///< conflicting cross-process pairs
  bool truncated = false;           ///< exact search hit its budget
  /// Unified search-core statistics of the underlying exact analysis
  /// (which budget tripped, states, memo bytes); zeroed for the
  /// polynomial detectors, which do not search.
  search::SearchStats search;

  bool contains(EventId a, EventId b) const;
  std::string summary(const Trace& trace) const;

  /// Approximate resident bytes (race list + search-stats vectors); the
  /// unit the service result cache charges per cached RaceReport.
  std::uint64_t approx_bytes() const;
};

/// The independent race-only sweep: a class sweep under race semantics
/// (causal_data_edges forced off) whose causal CCW matrix gives the
/// bits.  It is the differential reference for the race bits a
/// full-order class sweep carries (compute_causal_and_interval).
RaceReport detect_races_exact(const Trace& trace,
                              const ExactOptions& options = {});
/// The exact report from an ALREADY-COMPUTED class sweep that carries
/// race bits (`sweep.races`, checked; see class_sweep_carries_races):
/// pure bit reads, no search.  The sharing hook for the service layer —
/// a session answers races() from the same cached causal/interval entry
/// relations() reads, and the report carries the sweep's truncated flag
/// and SearchStats verbatim.
RaceReport races_from_class_sweep(const Trace& trace,
                                  const CausalIntervalRelations& sweep);
RaceReport detect_races_observed(const Trace& trace);
RaceReport detect_races_guaranteed(const Trace& trace);

RaceReport detect_races(const Trace& trace, RaceDetector detector,
                        const ExactOptions& options = {});

}  // namespace evord
