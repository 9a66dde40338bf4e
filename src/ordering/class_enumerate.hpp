// Causal-class enumeration with prefix deduplication.
//
// The plain schedule enumerator (feasible/enumerate.hpp) walks every
// valid schedule; the causal exact solver then deduplicates their causal
// orders.  Exponentially many schedules can share one causal order, so a
// lot of that walk is wasted.  This enumerator prunes it: two schedule
// prefixes with
//   * the same scheduling state (positions, event flags, binary counts),
//   * the same causal order over the executed events,
//   * the same outstanding semaphore token producers (FIFO queues), and
//   * the same establishing Posts
// have exactly the same set of causal-class completions, so only one of
// them needs exploring.  The visitor still receives complete schedules,
// at least one per distinct complete causal class (possibly more, never
// one per redundant schedule).  With each schedule it receives the
// causal order the enumeration already tracked (the CausalTracker that
// keys the prefix dedup) as ancestor rows: rows[e] = { x : x -> e } in
// C(sigma) under ClassEnumOptions::causal, transitively closed, equal
// to the transpose of causal_closure(trace, schedule, options.causal).
// Accumulators read the class off those rows instead of replaying the
// schedule; callers that only need the schedule ignore them.
//
// This is the evord analogue of partial-order reduction: sound for
// class-level accumulation (any/all over causal orders), unsound for
// schedule counting — use the plain enumerator for that.
#pragma once

#include <cstdint>
#include <functional>

#include "feasible/stepper.hpp"
#include "ordering/causal.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"

namespace evord::search {
class PackedStateRegistry;
}

namespace evord {

struct ClassEnumOptions {
  StepperOptions stepper;
  CausalOptions causal;
  /// Stop expanding after this many distinct prefixes (0 = unlimited).
  /// Global across all workers in the parallel variant: prefixes past the
  /// budget are still claimed and counted but not expanded.
  std::size_t max_prefixes = 0;
  /// Stop after this many complete schedules delivered to the visitor
  /// (0 = unlimited).  Strict and global: enforced through a shared
  /// atomic counter, so the combined visit count never exceeds it even
  /// in parallel mode.
  std::uint64_t max_schedules = 0;
  double time_budget_seconds = 0.0;
  /// Byte budget over the prefix-fingerprint store and queued task
  /// descriptors (0 = unlimited).  Strict and global across workers;
  /// see search::SearchOptions::max_memory_bytes.
  std::uint64_t max_memory_bytes = 0;
  /// Spill cold dedup/memo shards to an mmap-backed temp file when the
  /// byte budget nears exhaustion instead of stopping with
  /// StopReason::kMemory; results stay bit-identical.  Only meaningful
  /// with max_memory_bytes set.  See search::SearchOptions::spill.
  bool spill = false;
  /// Optional caller-owned store (e.g. an exact solver's class-dedup
  /// set) attached to the search's memory accountant for the duration of
  /// the run, so its footprint counts against max_memory_bytes alongside
  /// the prefix store; detached before return.
  search::PackedStateRegistry* charge_store = nullptr;
  /// Fast-forward through this schedule prefix before enumerating (every
  /// event must be enabled in sequence).  The parallel variant seeds
  /// each task's subtree this way.
  std::vector<EventId> seed_prefix;
  /// Work-stealing scheduler tuning (parallel variant only; never
  /// affects results).
  search::StealOptions steal;
  /// Partial-order reduction (search/independence.hpp).  ON by default
  /// (kSourceWakeup — source sets + wakeup frames + tracked dynamic
  /// independence): class enumeration accumulates over causal classes,
  /// and the reduction preserves every complete causal class (the pruned
  /// schedules are causal-equivalent permutations of explored ones — the
  /// tracked excusals commute only pairs whose order the CausalTracker
  /// cannot observe) and every deadlocked frontier.  Schedule COUNTS
  /// drop under reduction — use the plain enumerator for counting.
  search::ReductionMode reduction = search::ReductionMode::kSourceWakeup;
};

struct ClassEnumStats {
  std::uint64_t schedules_visited = 0;  ///< complete schedules delivered
  std::uint64_t prefixes_pruned = 0;    ///< duplicate prefixes skipped
  std::uint64_t deadlocked_prefixes = 0;
  std::size_t distinct_prefixes = 0;
  bool truncated = false;
  bool stopped_by_visitor = false;
  search::SearchStats search;  ///< unified engine statistics
};

/// The causal order of one delivered schedule: rows[e] = { x : x -> e }
/// (strict, transitively closed), one row per event.
using AncestorRows = std::vector<DynamicBitset>;

/// Receives a complete schedule and its ancestor rows; both are only
/// valid for the duration of the call.  Return false to stop.
using ClassVisitor = std::function<bool(const std::vector<EventId>& schedule,
                                        const AncestorRows& rows)>;

/// ClassVisitor of the parallel variant, called with the executing
/// worker's slot index first.
using SlotClassVisitor =
    std::function<bool(std::size_t slot, const std::vector<EventId>& schedule,
                       const AncestorRows& rows)>;

/// Visits complete schedules covering every complete causal class.
ClassEnumStats enumerate_causal_classes(const Trace& trace,
                                        const ClassEnumOptions& options,
                                        const ClassVisitor& visit);

/// Number of initial scheduler tasks the parallel variant starts from:
/// the events enabled after `options.seed_prefix` (usually empty) has
/// been applied.
std::size_t num_root_subtrees(const Trace& trace,
                              const ClassEnumOptions& options);

/// Work-stealing parallel variant: each scheduler task runs an engine
/// with its own stepper and causal tracker.  The visitor is invoked
/// concurrently and receives the executing worker's slot index (in
/// [0, resolved thread count)) first: calls with the same slot never
/// overlap, so callers can keep per-slot accumulators lock-free; it must
/// otherwise be thread-safe.  Prefix dedup runs through one sharded
/// fingerprint set shared by all tasks: a prefix state reachable from
/// two task regions is expanded by whichever task claims it first (its
/// completions are identical either way), so every distinct state is
/// expanded exactly once and — absent budgets — schedules_visited and
/// the union of delivered causal classes match the serial engine
/// exactly.  All budgets (max_prefixes, max_schedules, the deadline)
/// are global across workers.  num_threads == 0 uses the hardware
/// concurrency; every request is clamped to search::max_worker_threads().
ClassEnumStats enumerate_causal_classes_parallel(
    const Trace& trace, const ClassEnumOptions& options,
    std::size_t num_threads, const SlotClassVisitor& visit);

}  // namespace evord
