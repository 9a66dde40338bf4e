// The exact solver: computes all six ordering relations of Table 1 by
// exhaustive analysis of F(P).
//
// Interleaving semantics uses the memoized state-space engine (one pass,
// no per-schedule work).  Causal and interval semantics enumerate
// complete schedules, deduplicate them into causal classes and accumulate
// per-class facts.  Each class is read off the ancestor rows the class
// enumeration already tracked (ordering/class_enumerate.hpp), never by
// replaying its schedule; only the class_dedup = false reference path
// replays every schedule with causal_closure.  The interval reading only
// adds free timing to the causal one, so both range over the same
// classes: ONE class enumeration feeds one accumulator that finishes both
// results (compute_causal_and_interval).  Both engines are exponential in
// the worst case — Theorems 1-4 say they must be, assuming P != NP — so
// budgets apply and results carry a `truncated` flag.
//
// The same class sweep also yields the exact races (race semantics: CCW
// of the synchronization-only causal order, race/race_detector.hpp)
// whenever the data edges of C(sigma) are schedule-invariant — F3 is
// enforced and every conflicting pair is a D edge, so every feasible
// schedule orders it the same way.  Then C(sigma) = closure(C_sync(sigma)
// ∪ D) and each synchronization-only class determines exactly one full
// class: the enumeration runs on the FINER synchronization-only order,
// one accumulator ORs the race bits per synchronization class, and the
// full-order accumulator reads only schedules that opened a new
// synchronization class (one representative per class: Maarand &
// Uustalu, "Generating Representative Executions").  Its full rows come
// from the tracked synchronization-only rows plus D in one word-parallel
// pass in schedule order (every D edge runs forward in sigma):
//   full[e] = sync[e] ∪ ⋃_{x ∈ sync[e]} full[x]
//                     ∪ ⋃_{(d, e) ∈ D} ({d} ∪ full[d]).
// Traces that break the precondition (e.g. `auto_dependences off`
// leaving a conflicting pair outside D, or respect_dependences = false)
// keep the full-order sweep and carry no race bits; detect_races_exact
// then runs its own sweep.
#pragma once

#include <cstdint>
#include <optional>

#include "ordering/relations.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"

namespace evord {

struct ExactOptions {
  /// Enforce F3 (shared-data dependences constrain the schedules).
  /// Disable for the paper's §5.3 "ignore dependences" variant.
  bool respect_dependences = true;

  /// Include data edges in each execution's causal order (the paper's
  /// full temporal reading).  Race detection sets this to false so that
  /// "concurrent" means "not ordered by synchronization", while F3 above
  /// still restricts WHICH executions are feasible.  Only affects causal
  /// and interval semantics.
  bool causal_data_edges = true;

  /// Causal/interval engine: stop after this many complete schedules
  /// (0 = unlimited).
  std::uint64_t max_schedules = 0;

  /// Causal/interval engine: prune schedule prefixes whose state AND
  /// induced causal order were already explored (one representative per
  /// causal-class prefix; see ordering/class_enumerate.hpp).  Exponentially
  /// faster on traces where many schedules share a causal order; results
  /// are identical (tested), only `schedules_seen` shrinks.
  bool class_dedup = true;
  /// Causal/interval engine, class_dedup path only: partial-order
  /// reduction in the underlying class enumeration
  /// (search/independence.hpp).  ON by default — reduction preserves the
  /// set of complete causal classes (pruned schedules are commuting
  /// permutations of explored ones), so the relation matrices,
  /// causal_classes and feasible_empty are unchanged; only
  /// `schedules_seen` shrinks further.  Ignored with class_dedup ==
  /// false (the plain enumerator's schedule counts stay exact) and by
  /// interleaving semantics (its matrices need the unreduced sweep).
  search::ReductionMode reduction = search::ReductionMode::kSourceWakeup;
  /// Interleaving engine: stop after this many distinct states
  /// (0 = unlimited).
  std::size_t max_states = 4'000'000;
  /// Either engine: stop after this many seconds (0 = unlimited).
  double time_budget_seconds = 0.0;
  /// Either engine: stop once the underlying search's charged memory —
  /// prefix/memo fingerprint stores, queued task descriptors — reaches
  /// this many bytes (0 = unlimited).  Strict and global across
  /// workers; the result is flagged `truncated` with
  /// StopReason::kMemory.  See search::SearchOptions::max_memory_bytes.
  std::uint64_t max_memory_bytes = 0;
  /// Spill cold dedup/memo shards to an mmap-backed temp file when the
  /// byte budget nears exhaustion instead of stopping with
  /// StopReason::kMemory; results stay bit-identical.  Only meaningful
  /// with max_memory_bytes set.  See search::SearchOptions::spill.
  bool spill = false;

  /// Causal/interval engine: number of worker threads (0 = hardware
  /// concurrency, 1 = serial; every request is clamped to
  /// search::max_worker_threads()).  The search runs on the
  /// work-stealing scheduler: workers accumulate into private per-slot
  /// state merged associatively at the end, and deduplicate classes AND
  /// class prefixes against shared sharded fingerprint sets, so every
  /// distinct prefix state is expanded exactly once across all workers.
  /// Relation matrices, causal_classes, feasible_empty and — absent
  /// budgets — schedules_seen are identical to the serial engine's
  /// (tested), regardless of thread count, steal order or subtree
  /// splits.  All budgets (max_schedules, max_states and the time
  /// budget) are strict and global across workers: they share one
  /// search context, so a budget of N caps the combined total at N.
  /// Interleaving semantics also honors this: the memoized state-space
  /// sweep runs warming tasks on the same scheduler and its parallel
  /// results are bit-identical to serial (docs/SEARCH.md).
  std::size_t num_threads = 1;

  /// Work-stealing scheduler tuning (never affects results; see
  /// search::StealOptions).
  search::StealOptions steal;
};

/// Causal and interval relations from one causal-class enumeration.  The
/// members share the sweep: truncated, schedules_seen, causal_classes,
/// deadlocked_prefixes, feasible_empty and search are equal in both.
/// schedules_seen, deadlocked_prefixes and search describe the sweep
/// actually run — the synchronization-only one when the race bits ride
/// along with causal_data_edges set — while causal_classes counts the
/// classes of the requested causal order.
struct CausalIntervalRelations {
  OrderingRelations causal;
  OrderingRelations interval;
  /// Race semantics per candidate pair: bit i is set iff
  /// trace.conflicting_pairs()[i] could have been concurrent under the
  /// synchronization-only causal order of some feasible execution.
  /// Present iff class_sweep_carries_races(trace, options); it is as
  /// truncated as the sweep (`causal.truncated`).
  std::optional<DynamicBitset> races;

  /// The member for `semantics` (kCausal or kInterval; checked).
  const OrderingRelations& of(Semantics semantics) const;
  std::uint64_t approx_bytes() const {
    return causal.approx_bytes() + interval.approx_bytes() +
           (races.has_value() ? races->word_count() * sizeof(std::uint64_t)
                               : 0);
  }
};

/// True iff compute_causal_and_interval(trace, options) fills `races`:
/// the options already use race semantics (causal_data_edges = false),
/// or the data edges are schedule-invariant (respect_dependences holds
/// and every conflicting pair is a dependences() edge in some
/// direction).  O(conflicting pairs · log |D|).
bool class_sweep_carries_races(const Trace& trace,
                               const ExactOptions& options = {});

CausalIntervalRelations compute_causal_and_interval(
    const Trace& trace, const ExactOptions& options = {});

/// Computes all six relations under the chosen semantics (kCausal and
/// kInterval return one member of compute_causal_and_interval).
OrderingRelations compute_exact(const Trace& trace, Semantics semantics,
                                const ExactOptions& options = {});

/// Convenience single-pair queries (full computation under the hood; use
/// compute_exact once when querying many pairs).
bool must_have_happened_before(const Trace& trace, EventId a, EventId b,
                               Semantics semantics = Semantics::kCausal,
                               const ExactOptions& options = {});
bool could_have_happened_before(const Trace& trace, EventId a, EventId b,
                                Semantics semantics = Semantics::kCausal,
                                const ExactOptions& options = {});
bool could_have_been_concurrent(const Trace& trace, EventId a, EventId b,
                                const ExactOptions& options = {});

}  // namespace evord
