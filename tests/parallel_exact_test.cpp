// Serial vs parallel exact engine equivalence.
//
// The root-split parallel engine (ExactOptions::num_threads > 1) shares
// one sharded fingerprint set across workers, so every distinct prefix
// state is expanded exactly once and — absent budgets — its results are
// bit-identical to the serial engine's.  This test pins that contract
// across workload-generator traces, all three semantics, and both
// settings of causal_data_edges.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ordering/exact.hpp"
#include "ordering/relations.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

OrderingRelations analyze(const Trace& trace, Semantics semantics,
                          bool data_edges, std::size_t threads) {
  ExactOptions options;
  options.causal_data_edges = data_edges;
  options.num_threads = threads;
  return compute_exact(trace, semantics, options);
}

void expect_identical(const OrderingRelations& serial,
                      const OrderingRelations& parallel,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(serial.feasible_empty, parallel.feasible_empty);
  EXPECT_EQ(serial.truncated, parallel.truncated);
  EXPECT_EQ(serial.causal_classes, parallel.causal_classes);
  EXPECT_EQ(serial.schedules_seen, parallel.schedules_seen);
  for (const RelationKind kind : kAllRelationKinds) {
    EXPECT_EQ(serial[kind], parallel[kind]) << to_string(kind);
  }
}

void check_trace(const Trace& trace, const std::string& label) {
  for (const Semantics semantics :
       {Semantics::kInterleaving, Semantics::kCausal, Semantics::kInterval}) {
    for (const bool data_edges : {true, false}) {
      const OrderingRelations serial =
          analyze(trace, semantics, data_edges, 1);
      const OrderingRelations parallel =
          analyze(trace, semantics, data_edges, 4);
      std::ostringstream os;
      os << label << " / " << to_string(semantics)
         << (data_edges ? " / data-edges" : " / no-data-edges");
      expect_identical(serial, parallel, os.str());
    }
  }
}

TEST(ParallelExact, MatchesSerialOnRandomSemaphoreTraces) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    SemTraceConfig config;
    config.num_events = 12;
    const Trace trace = random_semaphore_trace(config, rng);
    check_trace(trace, "sem-trace seed " + std::to_string(seed));
  }
}

TEST(ParallelExact, MatchesSerialOnRandomEventTraces) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    EventTraceConfig config;
    config.num_events = 12;
    config.num_variables = 2;
    const Trace trace = random_event_trace(config, rng);
    check_trace(trace, "event-trace seed " + std::to_string(seed));
  }
}

TEST(ParallelExact, MatchesSerialOnForkJoin) {
  Rng rng(7);
  const Trace trace = random_fork_join_trace(/*num_children=*/2,
                                             /*events_per_child=*/3, rng);
  check_trace(trace, "fork-join");
}

TEST(ParallelExact, MatchesSerialOnPipeline) {
  const Trace trace = pipeline_trace(/*stages=*/3, /*items=*/2);
  check_trace(trace, "pipeline");
}

TEST(ParallelExact, HardwareConcurrencyRequestMatchesSerial) {
  Rng rng(11);
  SemTraceConfig config;
  config.num_events = 10;
  const Trace trace = random_semaphore_trace(config, rng);
  const OrderingRelations serial =
      analyze(trace, Semantics::kCausal, /*data_edges=*/true, 1);
  // num_threads == 0 resolves to the hardware concurrency.
  const OrderingRelations parallel =
      analyze(trace, Semantics::kCausal, /*data_edges=*/true, 0);
  expect_identical(serial, parallel, "hardware-concurrency");
}

// More threads than root subtrees (single enabled root event) must fall
// back to the serial path without deadlock or double counting.
TEST(ParallelExact, SingleRootSubtreeFallsBackToSerial) {
  const Trace trace = pipeline_trace(/*stages=*/2, /*items=*/1);
  const OrderingRelations serial =
      analyze(trace, Semantics::kCausal, /*data_edges=*/true, 1);
  const OrderingRelations parallel =
      analyze(trace, Semantics::kCausal, /*data_edges=*/true, 8);
  expect_identical(serial, parallel, "single-root");
}

// compute_causal_and_interval finishes both semantics from ONE class
// enumeration.  Each member must equal what the other enumeration arms
// produce on their own: the plain (non-prefix-dedup) enumerator, the
// unreduced class walk, and the serial and 4-worker engines.
void expect_same_sweep(const OrderingRelations& a, const OrderingRelations& b,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.feasible_empty, b.feasible_empty);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.causal_classes, b.causal_classes);
  for (const RelationKind kind : kAllRelationKinds) {
    EXPECT_EQ(a[kind], b[kind]) << to_string(kind);
  }
}

void check_fused(const Trace& trace, const std::string& label) {
  for (const bool data_edges : {true, false}) {
    ExactOptions options;
    options.causal_data_edges = data_edges;
    const CausalIntervalRelations fused =
        compute_causal_and_interval(trace, options);
    const std::string where =
        label + (data_edges ? " / data-edges" : " / no-data-edges");
    // The members share the sweep.
    EXPECT_EQ(fused.causal.semantics, Semantics::kCausal);
    EXPECT_EQ(fused.interval.semantics, Semantics::kInterval);
    EXPECT_EQ(fused.causal.schedules_seen, fused.interval.schedules_seen);
    EXPECT_EQ(fused.causal.deadlocked_prefixes,
              fused.interval.deadlocked_prefixes);
    EXPECT_EQ(fused.causal.search.states_visited,
              fused.interval.search.states_visited);

    ExactOptions plain = options;
    plain.class_dedup = false;
    ExactOptions unreduced = options;
    unreduced.reduction = search::ReductionMode::kOff;
    ExactOptions parallel = options;
    parallel.num_threads = 4;
    const CausalIntervalRelations refs[] = {
        compute_causal_and_interval(trace, plain),
        compute_causal_and_interval(trace, unreduced),
        compute_causal_and_interval(trace, parallel)};
    const char* ref_names[] = {"plain", "kOff", "4 workers"};
    for (std::size_t i = 0; i < 3; ++i) {
      for (const Semantics s : {Semantics::kCausal, Semantics::kInterval}) {
        expect_same_sweep(fused.of(s), refs[i].of(s),
                          where + " / " + ref_names[i] + " / " +
                              to_string(s));
        // compute_exact returns the requested member of the fused run.
        expect_same_sweep(compute_exact(trace, s, options), fused.of(s),
                          where + " / compute_exact / " + to_string(s));
      }
    }
    EXPECT_EQ(fused.causal.schedules_seen, refs[2].causal.schedules_seen)
        << where;
  }
}

TEST(ParallelExact, FusedCausalIntervalMatchesIndependentRuns) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31 + 5);
    SemTraceConfig sem;
    sem.num_events = 10;
    check_fused(random_semaphore_trace(sem, rng),
                "sem-trace seed " + std::to_string(seed));
    EventTraceConfig ev;
    ev.num_events = 10;
    ev.num_variables = 2;
    check_fused(random_event_trace(ev, rng),
                "event-trace seed " + std::to_string(seed));
  }
}

TEST(ParallelExact, TruncatedFusedSweepFlagsBothMembers) {
  Rng rng(17);
  SemTraceConfig config;
  config.num_events = 12;
  const Trace trace = random_semaphore_trace(config, rng);
  // More than one class, so a one-schedule budget must cut the sweep.
  ASSERT_GT(compute_causal_and_interval(trace).causal.causal_classes, 1u);
  for (const bool class_dedup : {true, false}) {
    for (const std::size_t threads : {1u, 4u}) {
      ExactOptions options;
      options.class_dedup = class_dedup;
      options.num_threads = threads;
      options.max_schedules = 1;
      const CausalIntervalRelations fused =
          compute_causal_and_interval(trace, options);
      EXPECT_TRUE(fused.causal.truncated)
          << "class_dedup=" << class_dedup << " threads=" << threads;
      EXPECT_TRUE(fused.interval.truncated)
          << "class_dedup=" << class_dedup << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace evord
