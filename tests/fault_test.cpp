// Deterministic fault-injection sweep (util/fault.hpp) across every
// explorer of the unified search core: each armed FaultPlan must stop
// the search cleanly with the matching StopReason and `truncated`
// provenance, result-preserving faults (steal stall / poison) must keep
// every result bit-identical, and any witness that survives a fault must
// still replay.  The sweep runs serial and at 2/4/8 workers (the tsan
// label re-runs it under ThreadSanitizer).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "feasible/deadlock.hpp"
#include "feasible/enumerate.hpp"
#include "feasible/schedule_space.hpp"
#include "feasible/stepper.hpp"
#include "ordering/class_enumerate.hpp"
#include "ordering/exact.hpp"
#include "race/race_detector.hpp"
#include "reductions/reduction.hpp"
#include "sat/dpll.hpp"
#include "service/session.hpp"
#include "util/fault.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

const std::vector<std::size_t> kWorkerCounts{1, 2, 4, 8};

/// A semaphore trace with a state space far larger than any fault
/// threshold used below, so every trip lands mid-search.
Trace sweep_trace() {
  Rng rng(7);
  SemTraceConfig config;
  config.num_processes = 3;
  config.num_semaphores = 2;
  config.num_events = 14;
  return random_semaphore_trace(config, rng);
}

/// The paper's event-style 3SAT gadget ("Although these processes can
/// deadlock..."): a trace with reachable stuck states, for witness
/// assertions under faults.
Trace wedgeable_trace() {
  CnfFormula f;
  f.add_clause({1, 1, 1});
  return execute_reduction(reduce_3sat_events(f)).trace;
}

void expect_wedged_prefix(const Trace& trace,
                          const std::vector<EventId>& witness) {
  TraceStepper stepper(trace, {});
  for (const EventId e : witness) {
    ASSERT_TRUE(stepper.enabled(e)) << "witness is not schedulable";
    stepper.apply(e);
  }
  ASSERT_FALSE(stepper.complete());
  std::vector<EventId> enabled;
  stepper.enabled_events(enabled);
  EXPECT_TRUE(enabled.empty()) << "witness does not end in a stuck state";
}

// ---------------------------------------------------------------- plumbing

TEST(FaultPlan, NamesAreExhaustive) {
  using fault::FaultKind;
  EXPECT_STREQ(fault::to_string(FaultKind::kNone), "none");
  EXPECT_STREQ(fault::to_string(FaultKind::kDeadlineAtState),
               "deadline-at-state");
  EXPECT_STREQ(fault::to_string(FaultKind::kStoreFailAt), "store-fail-at");
  EXPECT_STREQ(fault::to_string(FaultKind::kStealStall), "steal-stall");
  EXPECT_STREQ(fault::to_string(FaultKind::kStealPoison), "steal-poison");
  EXPECT_STREQ(fault::to_string(static_cast<FaultKind>(0xff)), "unknown");
}

TEST(FaultPlan, SeededThresholdIsDeterministic) {
  const fault::FaultPlan a{.kind = fault::FaultKind::kDeadlineAtState,
                           .seed = 42};
  const fault::FaultPlan b{.kind = fault::FaultKind::kDeadlineAtState,
                           .seed = 42};
  EXPECT_EQ(a.resolved_threshold(), b.resolved_threshold());
  EXPECT_GE(a.resolved_threshold(), 1u);
  EXPECT_LE(a.resolved_threshold(), 98u);
  const fault::FaultPlan c{.kind = fault::FaultKind::kDeadlineAtState,
                           .threshold = 17, .seed = 42};
  EXPECT_EQ(c.resolved_threshold(), 17u);
}

TEST(FaultPlan, DisarmedHooksAreInert) {
  fault::disarm();
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::on_state_expanded());
  EXPECT_FALSE(fault::on_store_insert());
  EXPECT_EQ(fault::on_steal_attempt(0), fault::StealAction::kProceed);
}

// --------------------------------------------- deadline-at-state tripping

TEST(FaultSweep, DeadlineAtStateStopsEveryExplorer) {
  const Trace trace = sweep_trace();
  const fault::FaultPlan plan{.kind = fault::FaultKind::kDeadlineAtState,
                              .threshold = 5};
  for (const std::size_t threads : kWorkerCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      fault::ScopedFaultPlan armed(plan);
      ExactOptions eo;
      eo.num_threads = threads;
      const OrderingRelations r =
          compute_exact(trace, Semantics::kCausal, eo);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
      EXPECT_GE(fault::states_observed(), plan.threshold);
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ScheduleSpaceOptions so;
      so.num_threads = threads;
      const CanPrecedeResult r = compute_can_precede(trace, so);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      DeadlockOptions dopts;
      dopts.num_threads = threads;
      const DeadlockReport r = analyze_deadlocks(trace, dopts);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      EnumerateOptions eo;
      const EnumerateStats stats =
          threads <= 1
              ? enumerate_schedules(trace, eo,
                                    [](const std::vector<EventId>&) {
                                      return true;
                                    })
              : enumerate_schedules_parallel(
                    trace, eo,
                    [](const std::vector<EventId>&) { return true; },
                    threads);
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ClassEnumOptions co;
      const ClassEnumStats stats =
          threads <= 1
              ? enumerate_causal_classes(trace, co,
                                         [](const std::vector<EventId>&,
                                            const AncestorRows&) {
                                           return true;
                                         })
              : enumerate_causal_classes_parallel(
                    trace, co, threads,
                    [](std::size_t, const std::vector<EventId>&,
                       const AncestorRows&) {
                      return true;
                    });
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
  }
  EXPECT_FALSE(fault::enabled());
}

// --------------------------------------------------- store-fail tripping

TEST(FaultSweep, StoreFailureStopsStoreBackedExplorers) {
  const Trace trace = sweep_trace();
  const fault::FaultPlan plan{.kind = fault::FaultKind::kStoreFailAt,
                              .threshold = 3};
  for (const std::size_t threads : kWorkerCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      fault::ScopedFaultPlan armed(plan);
      ExactOptions eo;
      eo.num_threads = threads;
      const OrderingRelations r =
          compute_exact(trace, Semantics::kCausal, eo);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
      EXPECT_GE(fault::inserts_observed(), plan.threshold);
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ScheduleSpaceOptions so;
      so.num_threads = threads;
      const CanPrecedeResult r = compute_can_precede(trace, so);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      DeadlockOptions dopts;
      dopts.num_threads = threads;
      const DeadlockReport r = analyze_deadlocks(trace, dopts);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ClassEnumOptions co;
      const ClassEnumStats stats =
          threads <= 1
              ? enumerate_causal_classes(trace, co,
                                         [](const std::vector<EventId>&,
                                            const AncestorRows&) {
                                           return true;
                                         })
              : enumerate_causal_classes_parallel(
                    trace, co, threads,
                    [](std::size_t, const std::vector<EventId>&,
                       const AncestorRows&) {
                      return true;
                    });
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
    }
  }
}

/// A trace whose data edges are D edges and whose reduced class sweep
/// still expands ~400 prefix states over 15 classes, so every threshold
/// below lands mid-sweep.
Trace class_sweep_trace() {
  Rng rng(5);
  SemTraceConfig config;
  config.num_processes = 5;
  config.num_semaphores = 2;
  config.num_events = 22;
  return random_semaphore_trace(config, rng);
}

void expect_same_class_sweep(const CausalIntervalRelations& a,
                             const CausalIntervalRelations& b,
                             const std::string& label) {
  for (const Semantics s : {Semantics::kCausal, Semantics::kInterval}) {
    EXPECT_EQ(a.of(s).causal_classes, b.of(s).causal_classes) << label;
    for (const RelationKind k : kAllRelationKinds) {
      EXPECT_EQ(a.of(s)[k], b.of(s)[k]) << label << " " << to_string(k);
    }
  }
  EXPECT_EQ(a.races, b.races) << label;
}

TEST(FaultSweep, ClassSweepTruncatesCleanlyAtEveryThreshold) {
  // The class sweep reads its classes off the enumeration's tracked
  // rows, fused (synchronization-only rows plus D) or not.  A deadline
  // or store failure at any point of it must stop it without throwing,
  // flag causal, interval and race results truncated, and leave no
  // truncated entry in a session cache; unfaulted answers stay exact.
  const Trace trace = class_sweep_trace();
  ExactOptions fused;
  ExactOptions unfused;
  unfused.causal_data_edges = false;  // race semantics: no D to add
  ASSERT_TRUE(class_sweep_carries_races(trace, fused));
  const auto shared = std::make_shared<const Trace>(trace);
  for (const auto& [name, base] :
       {std::pair<std::string, ExactOptions>{"fused", fused},
        {"unfused", unfused}}) {
    const CausalIntervalRelations reference =
        compute_causal_and_interval(trace, base);
    ASSERT_FALSE(reference.causal.truncated) << name;
    ASSERT_TRUE(reference.races.has_value()) << name;
    for (const fault::FaultKind kind : {fault::FaultKind::kDeadlineAtState,
                                        fault::FaultKind::kStoreFailAt}) {
      const search::StopReason reason =
          kind == fault::FaultKind::kDeadlineAtState
              ? search::StopReason::kDeadline
              : search::StopReason::kMemory;
      for (const std::size_t threads : {1u, 4u}) {
        ExactOptions options = base;
        options.num_threads = threads;
        for (std::uint64_t threshold = 1; threshold <= 64; ++threshold) {
          const std::string label =
              name + " " + fault::to_string(kind) + " threads=" +
              std::to_string(threads) + " at " + std::to_string(threshold);
          const fault::FaultPlan plan{.kind = kind, .threshold = threshold};
          {
            fault::ScopedFaultPlan armed(plan);
            CausalIntervalRelations r;
            ASSERT_NO_THROW(r = compute_causal_and_interval(trace, options))
                << label;
            EXPECT_TRUE(fault::tripped()) << label;
            EXPECT_TRUE(r.causal.truncated) << label;
            EXPECT_TRUE(r.interval.truncated) << label;
            EXPECT_EQ(r.causal.search.stop_reason, reason) << label;
            ASSERT_TRUE(r.races.has_value()) << label;
            EXPECT_TRUE(races_from_class_sweep(trace, r).truncated) << label;
          }
          service::AnalysisSession session(shared, options);
          {
            fault::ScopedFaultPlan armed(plan);
            ASSERT_NO_THROW({
              EXPECT_TRUE(session.relations(Semantics::kCausal)->truncated)
                  << label;
              EXPECT_TRUE(session.races()->truncated) << label;
            }) << label;
          }
          EXPECT_EQ(session.cache()->stats().entries, 0u) << label;
          // Unfaulted, the session recomputes and caches exact answers.
          const auto causal = session.relations(Semantics::kCausal);
          EXPECT_FALSE(causal->truncated) << label;
          EXPECT_EQ(causal->causal_classes, reference.causal.causal_classes)
              << label;
          for (const RelationKind k : kAllRelationKinds) {
            EXPECT_EQ((*causal)[k], reference.causal[k]) << label;
          }
          EXPECT_FALSE(session.races()->truncated) << label;
        }
        expect_same_class_sweep(compute_causal_and_interval(trace, options),
                                reference,
                                name + " unfaulted, threads=" +
                                    std::to_string(threads));
      }
    }
  }
}

TEST(FaultSweep, StoreFaultIsInertForStorelessEnumeration) {
  // The plain schedule enumerator keeps no fingerprint store, so a
  // store-fail plan has nothing to fail: the walk must complete
  // untruncated with counts identical to the no-fault baseline.
  const Trace trace = sweep_trace();
  EnumerateOptions eo;
  const EnumerateStats baseline = enumerate_schedules(
      trace, eo, [](const std::vector<EventId>&) { return true; });
  fault::ScopedFaultPlan armed({.kind = fault::FaultKind::kStoreFailAt,
                                .threshold = 1});
  const EnumerateStats faulted = enumerate_schedules(
      trace, eo, [](const std::vector<EventId>&) { return true; });
  EXPECT_FALSE(faulted.truncated);
  EXPECT_FALSE(fault::tripped());
  EXPECT_EQ(faulted.schedules, baseline.schedules);
  EXPECT_EQ(faulted.deadlocked_prefixes, baseline.deadlocked_prefixes);
}

// ------------------------------------- result-preserving steal faults

TEST(FaultSweep, StealPoisonPreservesExactResults) {
  const Trace trace = sweep_trace();
  ExactOptions eo;
  const OrderingRelations baseline =
      compute_exact(trace, Semantics::kCausal, eo);
  ASSERT_FALSE(baseline.truncated);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fault::ScopedFaultPlan armed({.kind = fault::FaultKind::kStealPoison,
                                  .worker = fault::kAnyWorker});
    ExactOptions peo;
    peo.num_threads = threads;
    const OrderingRelations r =
        compute_exact(trace, Semantics::kCausal, peo);
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.causal_classes, baseline.causal_classes);
    EXPECT_EQ(r.feasible_empty, baseline.feasible_empty);
    for (RelationKind k : kAllRelationKinds) {
      EXPECT_EQ(r[k], baseline[k]) << "relation " << to_string(k);
    }
  }
}

TEST(FaultSweep, StealStallPreservesDeadlockReport) {
  const Trace trace = wedgeable_trace();
  DeadlockOptions dopts;
  const DeadlockReport baseline = analyze_deadlocks(trace, dopts);
  ASSERT_TRUE(baseline.can_deadlock);
  for (const fault::FaultKind kind : {fault::FaultKind::kStealStall,
                                      fault::FaultKind::kStealPoison}) {
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      SCOPED_TRACE(std::string(fault::to_string(kind)) +
                   " threads=" + std::to_string(threads));
      fault::ScopedFaultPlan armed({.kind = kind,
                                    .worker = fault::kAnyWorker});
      DeadlockOptions popts;
      popts.num_threads = threads;
      const DeadlockReport r = analyze_deadlocks(trace, popts);
      EXPECT_FALSE(r.truncated);
      EXPECT_EQ(r.can_deadlock, baseline.can_deadlock);
      EXPECT_EQ(r.witness_prefix, baseline.witness_prefix);
      EXPECT_EQ(r.stuck_states, baseline.stuck_states);
      expect_wedged_prefix(trace, r.witness_prefix);
    }
  }
}

TEST(FaultSweep, TargetedStealPoisonOnlyHitsOneWorker) {
  const Trace trace = sweep_trace();
  ExactOptions eo;
  const OrderingRelations baseline =
      compute_exact(trace, Semantics::kCausal, eo);
  fault::ScopedFaultPlan armed({.kind = fault::FaultKind::kStealPoison,
                                .worker = 1});
  ExactOptions peo;
  peo.num_threads = 4;
  const OrderingRelations r = compute_exact(trace, Semantics::kCausal, peo);
  EXPECT_FALSE(r.truncated);
  for (RelationKind k : kAllRelationKinds) {
    EXPECT_EQ(r[k], baseline[k]) << "relation " << to_string(k);
  }
}

// --------------------------------- witnesses surviving injected faults

TEST(FaultSweep, TruncatedDeadlockSearchStillYieldsReplayableWitness) {
  // Sweep the deadline trip point upward: once the budget admits a stuck
  // state, the truncated report must carry a witness that replays to a
  // wedged frontier.  (Serial, so the sweep is exactly deterministic.)
  const Trace trace = wedgeable_trace();
  bool found_truncated_witness = false;
  for (std::uint64_t threshold = 2; threshold <= 4096 &&
                                    !found_truncated_witness;
       threshold *= 2) {
    fault::ScopedFaultPlan armed(
        {.kind = fault::FaultKind::kDeadlineAtState,
         .threshold = threshold});
    const DeadlockReport r = analyze_deadlocks(trace, {});
    if (!r.truncated) break;  // search finished under this trip point
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
    if (r.can_deadlock) {
      expect_wedged_prefix(trace, r.witness_prefix);
      found_truncated_witness = true;
    }
  }
  EXPECT_TRUE(found_truncated_witness)
      << "no trip point produced a truncated run with a witness";
}

TEST(FaultSweep, ReplaySameSeedSameStats) {
  const Trace trace = sweep_trace();
  auto run = [&] {
    fault::ScopedFaultPlan armed(
        {.kind = fault::FaultKind::kDeadlineAtState, .seed = 1234});
    DeadlockOptions dopts;
    return analyze_deadlocks(trace, dopts);
  };
  const DeadlockReport a = run();
  const DeadlockReport b = run();
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.can_deadlock, b.can_deadlock);
  EXPECT_EQ(a.witness_prefix, b.witness_prefix);
  EXPECT_EQ(a.search.stop_reason, b.search.stop_reason);
}

}  // namespace
}  // namespace evord
