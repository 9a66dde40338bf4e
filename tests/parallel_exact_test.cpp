// Serial vs parallel exact engine equivalence.
//
// The root-split parallel engine (ExactOptions::num_threads > 1) shares
// one sharded fingerprint set across workers, so every distinct prefix
// state is expanded exactly once and — absent budgets — its results are
// bit-identical to the serial engine's.  This test pins that contract
// across workload-generator traces, all three semantics, and both
// settings of causal_data_edges.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "feasible/enumerate.hpp"
#include "ordering/causal.hpp"
#include "ordering/exact.hpp"
#include "ordering/relations.hpp"
#include "race/race_detector.hpp"
#include "trace/builder.hpp"
#include "util/check.hpp"
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

// ------------------------------------------------ race bits of the sweep

/// Brute force over every feasible schedule: bit i of the result is set
/// iff conflicting pair i is unordered by some schedule's
/// synchronization-only causal order.  Also counts those orders.
DynamicBitset brute_force_races(const Trace& trace, bool respect_dependences,
                                std::size_t* sync_classes) {
  const std::vector<DependenceEdge> pairs = trace.conflicting_pairs();
  DynamicBitset bits(pairs.size());
  std::set<std::string> classes;
  EnumerateOptions eo;
  eo.stepper.respect_dependences = respect_dependences;
  enumerate_schedules(trace, eo, [&](const std::vector<EventId>& s) {
    const TransitiveClosure tc =
        causal_closure(trace, s, {.include_data_edges = false});
    std::string key;
    for (EventId a = 0; a < trace.num_events(); ++a) {
      for (EventId b = 0; b < trace.num_events(); ++b) {
        key.push_back(tc.reachable(a, b) ? '1' : '0');
      }
    }
    classes.insert(std::move(key));
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (tc.incomparable(pairs[i].first, pairs[i].second)) bits.set(i);
    }
    return true;
  });
  *sync_classes = classes.size();
  return bits;
}

void expect_same_report(const RaceReport& a, const RaceReport& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.races.size(), b.races.size());
  for (std::size_t i = 0; i < a.races.size(); ++i) {
    EXPECT_EQ(a.races[i].a, b.races[i].a);
    EXPECT_EQ(a.races[i].b, b.races[i].b);
    EXPECT_EQ(a.races[i].hidden_in_observed, b.races[i].hidden_in_observed);
  }
}

/// `base` in its four enumeration arms, by name: as given, unreduced,
/// plain enumerator, 4 workers.
std::vector<std::pair<std::string, ExactOptions>> enumeration_arms(
    const ExactOptions& base) {
  std::vector<std::pair<std::string, ExactOptions>> arms(4, {"", base});
  arms[0].first = "default";
  arms[1].first = "kOff";
  arms[1].second.reduction = search::ReductionMode::kOff;
  arms[2].first = "plain";
  arms[2].second.class_dedup = false;
  arms[3].first = "4 workers";
  arms[3].second.num_threads = 4;
  return arms;
}

/// The race-only sweep (detect_races_exact) in every enumeration arm of
/// `options`, all against the brute force.  Returns the default run's
/// report.
RaceReport check_race_only_sweeps(const Trace& trace,
                                  const ExactOptions& options,
                                  const DynamicBitset& brute,
                                  const std::string& label) {
  const RaceReport reference = detect_races_exact(trace, options);
  EXPECT_EQ(reference.candidate_pairs, brute.size()) << label;
  std::size_t racing = 0;
  for (std::size_t i = 0; i < brute.size(); ++i) racing += brute.test(i);
  EXPECT_EQ(reference.races.size(), racing) << label;
  const std::vector<DependenceEdge> pairs = trace.conflicting_pairs();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(reference.contains(pairs[i].first, pairs[i].second),
              brute.test(i))
        << label << " pair " << i;
  }
  for (const auto& [name, arm] : enumeration_arms(options)) {
    expect_same_report(detect_races_exact(trace, arm), reference,
                       label + " / race-only " + name);
  }
  return reference;
}

/// Checks one trace whose data edges are D edges: its class sweep, in
/// every enumeration arm, carries the race bits of the race-only sweep
/// (itself pinned to the brute force) and keeps its causal and interval
/// members.  Returns {any race found, more synchronization-only classes
/// than full classes}.
std::pair<bool, bool> check_fused_races(const Trace& trace,
                                        const std::string& label) {
  EXPECT_TRUE(class_sweep_carries_races(trace, {})) << label;
  std::size_t sync_classes = 0;
  const DynamicBitset brute =
      brute_force_races(trace, /*respect_dependences=*/true, &sync_classes);
  const RaceReport reference = check_race_only_sweeps(trace, {}, brute, label);

  const CausalIntervalRelations fused = compute_causal_and_interval(trace);
  for (const auto& [name, arm] : enumeration_arms({})) {
    const CausalIntervalRelations r = compute_causal_and_interval(trace, arm);
    const std::string where = label + " / fused " + name;
    EXPECT_TRUE(r.races.has_value()) << where;
    if (!r.races.has_value()) continue;
    EXPECT_EQ(*r.races, brute) << where;
    expect_same_report(races_from_class_sweep(trace, r), reference, where);
    for (const Semantics s : {Semantics::kCausal, Semantics::kInterval}) {
      expect_same_sweep(r.of(s), fused.of(s), where + " / " + to_string(s));
    }
  }
  return {!reference.races.empty(),
          sync_classes > fused.causal.causal_classes};
}

/// Two Posts race to establish the event a Wait reads, so the Wait's
/// synchronization edge comes from either Post; but each Post also
/// reaches the Wait through a write the Wait's process reads (D edges).
/// The two synchronization-only classes collapse into one full class,
/// and the z accesses race in only one of them: when the second Post
/// establishes the event, no synchronization orders them.  The Clear
/// makes the two classes' prefixes meet, so an enumeration over the full
/// order would prune one of them.
Trace collapsing_sync_classes() {
  TraceBuilder b;
  const VarId x = b.variable("X");
  const VarId y = b.variable("Y");
  const VarId z = b.variable("Z");
  const ObjectId e = b.event_var("E");
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  b.compute(b.root(), "wz", {}, {z});
  b.post(b.root(), e);
  b.compute(b.root(), "wx", {}, {x});
  b.post(p1, e);
  b.compute(p1, "wy", {}, {y});
  b.compute(p2, "rx", {x}, {});
  b.compute(p2, "ry", {y}, {});
  b.wait(p2, e);
  b.clear(p2, e);
  b.compute(p2, "rz", {z}, {});
  return b.build();
}

TEST(ParallelExact, FusedRaceBitsMatchRaceOnlySweep) {
  // Full-order class sweeps on traces whose data edges are D edges carry
  // the race bits of the finer synchronization-only classes.
  bool any_race = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 43 + 7);
    SemTraceConfig sem;
    sem.num_events = 11;
    any_race |= check_fused_races(random_semaphore_trace(sem, rng),
                                  "sem-trace seed " + std::to_string(seed))
                    .first;
    EventTraceConfig ev;
    ev.num_events = 11;
    ev.num_variables = 2;
    any_race |= check_fused_races(random_event_trace(ev, rng),
                                  "event-trace seed " + std::to_string(seed))
                    .first;
  }
  EXPECT_TRUE(any_race);
  // The gated full accumulator must also fold distinct synchronization
  // classes into one full class, and the race bits must come from every
  // synchronization class, not one per full class.
  EXPECT_EQ(check_fused_races(collapsing_sync_classes(), "collapsing"),
            std::make_pair(true, true));
}

/// Two writers and a reader of X, ordered partly by a semaphore, with
/// automatic dependences off: the conflicting writes are not in D.
Trace conflict_outside_dependences() {
  TraceBuilder b;
  b.set_auto_dependences(false);
  const VarId x = b.variable("X");
  const ObjectId s = b.semaphore("S");
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  b.compute(b.root(), "w0", {}, {x});
  b.sem_v(b.root(), s);
  b.compute(p1, "w1", {}, {x});
  b.sem_p(p2, s);
  b.compute(p2, "r2", {x}, {});
  b.compute(b.root(), "w3", {}, {x});
  b.add_dependence(0, 4);  // w0 -> r2 only
  return b.build();
}

TEST(ParallelExact, SweepWithoutInvariantDataEdgesFallsBack) {
  // Traces whose data edges vary between schedules keep the full-order
  // sweep and carry no race bits: the race-only sweep answers, and both
  // must still match their references.
  struct Case {
    Trace trace;
    ExactOptions options;
    std::string label;
  };
  std::vector<Case> cases;
  cases.push_back({conflict_outside_dependences(), {}, "conflict outside D"});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 59 + 3);
    SemTraceConfig sem;
    sem.num_events = 10;
    ExactOptions ignore_f3;
    ignore_f3.respect_dependences = false;
    cases.push_back({random_semaphore_trace(sem, rng), ignore_f3,
                     "respect_dependences off, seed " + std::to_string(seed)});
  }
  for (const Case& c : cases) {
    EXPECT_FALSE(class_sweep_carries_races(c.trace, c.options)) << c.label;
    const CausalIntervalRelations fused =
        compute_causal_and_interval(c.trace, c.options);
    EXPECT_FALSE(fused.races.has_value()) << c.label;
    EXPECT_THROW(races_from_class_sweep(c.trace, fused), CheckError)
        << c.label;
    std::size_t sync_classes = 0;
    const DynamicBitset brute = brute_force_races(
        c.trace, c.options.respect_dependences, &sync_classes);
    check_race_only_sweeps(c.trace, c.options, brute, c.label);
    // Causal and interval stay pinned to the plain, kOff and 4-worker
    // references on the full-order sweep.
    for (const auto& [name, arm] : enumeration_arms(c.options)) {
      const CausalIntervalRelations ref =
          compute_causal_and_interval(c.trace, arm);
      for (const Semantics s : {Semantics::kCausal, Semantics::kInterval}) {
        expect_same_sweep(fused.of(s), ref.of(s),
                          c.label + " / " + name + " / " + to_string(s));
      }
    }
  }
  // The hand-built trace's conflicting writes really are outside D.
  const Trace& outside = cases.front().trace;
  EXPECT_GT(outside.conflicting_pairs().size(), outside.dependences().size());
}

TEST(ParallelExact, TruncatedFusedSweepFlagsRaceBits) {
  Rng rng(17);
  SemTraceConfig config;
  config.num_events = 12;
  const Trace trace = random_semaphore_trace(config, rng);
  ASSERT_TRUE(class_sweep_carries_races(trace, {}));
  ASSERT_GT(compute_causal_and_interval(trace).causal.causal_classes, 1u);
  for (const bool class_dedup : {true, false}) {
    for (const std::size_t threads : {1u, 4u}) {
      ExactOptions options;
      options.class_dedup = class_dedup;
      options.num_threads = threads;
      options.max_schedules = 1;
      const CausalIntervalRelations fused =
          compute_causal_and_interval(trace, options);
      ASSERT_TRUE(fused.races.has_value());
      const RaceReport report = races_from_class_sweep(trace, fused);
      EXPECT_TRUE(report.truncated)
          << "class_dedup=" << class_dedup << " threads=" << threads;
      EXPECT_EQ(report.search.stop_reason, fused.causal.search.stop_reason);
    }
  }
}

/// The class sweep reads each class off the enumeration's tracked rows
/// (built from synchronization-only rows plus D when fused); the plain
/// enumerator replays every schedule.  Both feed the same accumulators,
/// so every matrix, class count and race bit must agree.
void expect_matches_replay(const Trace& trace, const ExactOptions& options,
                           const std::string& label) {
  for (const std::size_t threads : {1u, 4u}) {
    ExactOptions swept = options;
    swept.num_threads = threads;
    ExactOptions replayed = swept;
    replayed.class_dedup = false;
    const CausalIntervalRelations a = compute_causal_and_interval(trace, swept);
    const CausalIntervalRelations b =
        compute_causal_and_interval(trace, replayed);
    const std::string where = label + " / " + std::to_string(threads) +
                              " workers";
    EXPECT_FALSE(a.causal.truncated) << where;
    for (const Semantics s : {Semantics::kCausal, Semantics::kInterval}) {
      expect_same_sweep(a.of(s), b.of(s), where + " / " + to_string(s));
    }
    ASSERT_EQ(a.races.has_value(), b.races.has_value()) << where;
    if (a.races.has_value()) {
      EXPECT_EQ(*a.races, *b.races) << where;
    }
  }
}

TEST(ParallelExact, ClassSweepMatchesReplayBaseline) {
  struct Case {
    Trace trace;
    std::string label;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 67 + 11);
    SemTraceConfig sem;
    sem.num_events = 10;
    cases.push_back({random_semaphore_trace(sem, rng),
                     "sem-trace seed " + std::to_string(seed)});
    sem.binary_semaphores = true;
    cases.push_back({random_semaphore_trace(sem, rng),
                     "binary sem-trace seed " + std::to_string(seed)});
    EventTraceConfig ev;
    ev.num_events = 10;
    ev.num_variables = 2;
    cases.push_back({random_event_trace(ev, rng),
                     "event-trace seed " + std::to_string(seed)});
  }
  Rng rng(71);
  cases.push_back({random_fork_join_trace(2, 3, rng), "fork-join"});
  cases.push_back({collapsing_sync_classes(), "collapsing"});
  cases.push_back({conflict_outside_dependences(), "conflict outside D"});

  ExactOptions race_semantics;
  race_semantics.causal_data_edges = false;
  ExactOptions ignore_f3;
  ignore_f3.respect_dependences = false;
  std::size_t fused = 0;
  std::size_t unfused = 0;
  for (const Case& c : cases) {
    for (const auto& [name, options] :
         {std::pair<std::string, ExactOptions>{"default", {}},
          {"race semantics", race_semantics},
          {"respect_dependences off", ignore_f3}}) {
      // The fused sweep runs when the requested order has data edges and
      // they are the same in every schedule.
      if (options.causal_data_edges &&
          class_sweep_carries_races(c.trace, options)) {
        ++fused;
      } else {
        ++unfused;
      }
      expect_matches_replay(c.trace, options, c.label + " / " + name);
    }
  }
  EXPECT_GT(fused, 0u);
  EXPECT_GT(unfused, 0u);
}

}  // namespace
}  // namespace evord
