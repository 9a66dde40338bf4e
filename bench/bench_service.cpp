// Service-layer experiment: what the analysis-as-a-service core buys.
//
// Four row families, one BENCH_service.json:
//
//   1. Cold vs warm.  The same Theorem-1 causal sweep asked twice
//      through one AnalysisSession: the first call pays the exponential
//      search, the second is a pure result-cache hit (a mutex + hash
//      lookup).  The acceptance bar pins the service's reason to exist:
//      the warm answer must be at least 5x faster than the cold one
//      (in practice it is orders of magnitude faster).
//
//   2. Batch-of-N vs N singles.  N pair queries spread over all three
//      semantics, answered (a) the pre-service way — one fresh analyzer
//      per query, each paying its own sweep — and (b) as one
//      query_batch through a session, which coalesces them into at most
//      two sweeps: interleaving, and one class sweep shared by causal
//      and interval.  An exact-race report after the batch reads the
//      race bits of that class sweep, so the total stays at two.  Rows
//      record the wall times and the sweep counts.
//
//   3. Cold batch overlap.  On cold-pool-shaped traces (6 processes,
//      32 events, sweeps screened to at most 10k states), the
//      interleaving sweep and the class sweep each timed alone, then a
//      cold all-pairs three-semantics batch, which runs the two sweeps
//      side by side.  overlap = (interleaving_ms + class_sweep_ms) /
//      batch_ms: above 1 means the batch costs less than the two sweeps
//      in a row.  Sweep counts and answers are asserted, timings are not.
//
//   4. Hit ratio.  The shared-cache stats after a mixed query workload
//      repeated through a TraceRegistry session, the service-level
//      observable an operator would alert on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ordering/exact.hpp"
#include "ordering/relations.hpp"
#include "reductions/reduction.hpp"
#include "sat/formula.hpp"
#include "service/registry.hpp"
#include "service/session.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace evord;
using namespace evord::bench;
using service::AnalysisSession;
using service::PairQuery;
using service::TraceRegistry;

Trace theorem1_trace(const CnfFormula& formula) {
  return execute_reduction(reduce_3sat(formula, SyncStyle::kSemaphore))
      .trace;
}

double ms_since(const Timer& timer) {
  return static_cast<double>(timer.micros()) / 1000.0;
}

// ---------------------------------------------------------------------
// 1. Cold vs warm on the Theorem-1 sweep.

JsonRecord run_cold_vs_warm(const std::string& workload, const Trace& trace) {
  AnalysisSession session(std::make_shared<const Trace>(trace));
  Timer cold_timer;
  const auto cold = session.relations(Semantics::kCausal);
  const double cold_ms = ms_since(cold_timer);
  EVORD_CHECK(!cold->truncated, workload << ": cold sweep truncated");

  // The warm hit is tens of nanoseconds — far below the clock's
  // resolution — so time a block of hits and divide.
  constexpr int kReps = 4096;
  Timer warm_timer;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto warm = session.relations(Semantics::kCausal);
    EVORD_CHECK(warm.get() == cold.get(),
                workload << ": warm hit returned a different object");
  }
  const double warm_ms = ms_since(warm_timer) / kReps;
  // The acceptance bar: repeating the sweep through the session must be
  // at least 5x faster than computing it.  (A pure hash lookup vs an
  // exponential search — the real margin is far larger.)
  EVORD_CHECK(cold_ms >= 5.0 * warm_ms,
              workload << ": warm hit only " << cold_ms / warm_ms
                       << "x faster than the cold sweep");
  const auto stats = session.stats();
  return JsonRecord{}
      .add("engine", std::string("service"))
      .add("variant", std::string("cold_vs_warm"))
      .add("workload", workload)
      .add("num_events", static_cast<std::uint64_t>(trace.num_events()))
      .add("cold_ms", cold_ms)
      .add("warm_ms", warm_ms)
      .add("speedup", warm_ms > 0.0 ? cold_ms / warm_ms : 0.0)
      .add("states_explored", stats.states_explored)
      .add("cache_hits", stats.cache_hits);
}

// ---------------------------------------------------------------------
// 2. Batch-of-N vs N singles.

std::vector<PairQuery> mixed_pair_queries(const Trace& trace,
                                          std::size_t count) {
  constexpr std::array<Semantics, 3> kSemantics{Semantics::kInterleaving,
                                                Semantics::kCausal,
                                                Semantics::kInterval};
  constexpr std::array<RelationKind, 3> kKinds{
      RelationKind::kMHB, RelationKind::kCHB, RelationKind::kCCW};
  Rng rng(17);
  std::vector<PairQuery> queries;
  while (queries.size() < count) {
    PairQuery q;
    q.a = static_cast<EventId>(rng.below(trace.num_events()));
    q.b = static_cast<EventId>(rng.below(trace.num_events()));
    if (q.a == q.b) continue;
    q.relation = kKinds[rng.below(kKinds.size())];
    q.semantics = kSemantics[rng.below(kSemantics.size())];
    queries.push_back(q);
  }
  return queries;
}

JsonRecord run_batch_vs_singles(const std::string& workload,
                                const Trace& trace, std::size_t count) {
  const std::vector<PairQuery> queries = mixed_pair_queries(trace, count);

  // (a) The pre-service cost model: every query pays its own session
  // and therefore its own sweep (no sharing between callers).
  Timer singles_timer;
  std::vector<bool> singles;
  std::uint64_t singles_sweeps = 0;
  for (const PairQuery& q : queries) {
    AnalysisSession one(std::make_shared<const Trace>(trace));
    singles.push_back(one.pair_query(q));
    singles_sweeps += one.stats().sweeps;
  }
  const double singles_ms = ms_since(singles_timer);

  // (b) One batch through one session: at most two sweeps (interleaving;
  // causal and interval share one class sweep).
  AnalysisSession session(std::make_shared<const Trace>(trace));
  Timer batch_timer;
  const std::vector<bool> batched = session.query_batch(queries);
  const double batch_ms = ms_since(batch_timer);
  const std::uint64_t batch_sweeps = session.stats().sweeps;

  // (c) The exact-race report after the batch reads the race bits its
  // class sweep carried: still two sweeps in total.
  Timer races_timer;
  session.races(RaceDetector::kExact);
  const double races_ms = ms_since(races_timer);
  const std::uint64_t total_sweeps = session.stats().sweeps;

  EVORD_CHECK(singles == batched,
              workload << ": batched answers diverge from singles");
  EVORD_CHECK(batch_sweeps <= 2,
              workload << ": batch ran " << batch_sweeps << " sweeps");
  EVORD_CHECK(total_sweeps <= 2,
              workload << ": batch + exact races ran " << total_sweeps
                       << " sweeps");
  return JsonRecord{}
      .add("engine", std::string("service"))
      .add("variant", std::string("batch_vs_singles"))
      .add("workload", workload)
      .add("num_queries", static_cast<std::uint64_t>(count))
      .add("singles_ms", singles_ms)
      .add("singles_sweeps", singles_sweeps)
      .add("batch_ms", batch_ms)
      .add("batch_sweeps", batch_sweeps)
      .add("races_ms", races_ms)
      .add("batch_races_sweeps", total_sweeps)
      .add("speedup", batch_ms > 0.0 ? singles_ms / batch_ms : 0.0);
}

// ---------------------------------------------------------------------
// 3. Cold batch overlap.

/// The first `count` random semaphore traces shaped like the daemon
/// benchmark's cold pool whose interleaving and class sweeps each finish
/// within 10k states.
std::vector<Trace> cold_pool_shaped_traces(std::size_t count) {
  ExactOptions band;
  band.max_states = 10'000;
  std::vector<Trace> traces;
  for (std::uint64_t seed = 1; traces.size() < count; ++seed) {
    Rng rng(seed);
    SemTraceConfig config;
    config.num_processes = 6;
    config.num_semaphores = 3;
    config.num_variables = 3;
    config.num_events = 32;
    Trace trace = random_semaphore_trace(config, rng);
    if (!compute_exact(trace, Semantics::kInterleaving, band).truncated &&
        !compute_causal_and_interval(trace, band).causal.truncated) {
      traces.push_back(std::move(trace));
    }
  }
  return traces;
}

/// Every ordered pair under every semantics, relations cycling as in the
/// daemon benchmark's full batch.
std::vector<PairQuery> all_pairs_batch(const Trace& trace) {
  std::vector<PairQuery> queries;
  const auto n = static_cast<EventId>(trace.num_events());
  for (const Semantics s : {Semantics::kInterleaving, Semantics::kCausal,
                            Semantics::kInterval}) {
    for (EventId a = 0; a < n; ++a) {
      for (EventId b = 0; b < n; ++b) {
        if (a == b) continue;
        const auto kind = (a + b + static_cast<unsigned>(s)) %
                          static_cast<unsigned>(kNumRelationKinds);
        queries.push_back({kAllRelationKinds[kind], a, b, s});
      }
    }
  }
  return queries;
}

JsonRecord run_cold_batch_overlap(const std::string& workload,
                                  const std::vector<Trace>& traces) {
  // Minimum of kReps cold runs per trace and phase, summed over traces;
  // every run starts from a fresh session, so nothing is warm.
  constexpr int kReps = 5;
  double interleaving_ms = 0.0;
  double class_sweep_ms = 0.0;
  double batch_ms = 0.0;
  std::uint64_t batch_sweeps = 0;
  for (const Trace& trace : traces) {
    const auto shared = std::make_shared<const Trace>(trace);
    const std::vector<PairQuery> queries = all_pairs_batch(trace);
    double best_interleaving = 1e300;
    double best_class = 1e300;
    double best_batch = 1e300;
    std::vector<bool> singles;
    for (int rep = 0; rep < kReps; ++rep) {
      AnalysisSession interleaving_session(shared);
      Timer interleaving_timer;
      const auto interleaving =
          interleaving_session.relations(Semantics::kInterleaving);
      best_interleaving =
          std::min(best_interleaving, ms_since(interleaving_timer));

      AnalysisSession class_session(shared);
      Timer class_timer;
      const auto causal = class_session.relations(Semantics::kCausal);
      best_class = std::min(best_class, ms_since(class_timer));

      AnalysisSession batch_session(shared);
      Timer batch_timer;
      const std::vector<bool> batched = batch_session.query_batch(queries);
      best_batch = std::min(best_batch, ms_since(batch_timer));
      batch_sweeps = std::max(batch_sweeps, batch_session.stats().sweeps);

      if (rep == 0) {
        const auto interval = class_session.relations(Semantics::kInterval);
        for (const PairQuery& q : queries) {
          const OrderingRelations& r =
              q.semantics == Semantics::kInterleaving ? *interleaving
              : q.semantics == Semantics::kCausal     ? *causal
                                                      : *interval;
          singles.push_back(r.holds(q.relation, q.a, q.b));
        }
      }
      EVORD_CHECK(batched == singles,
                  workload << ": cold batch answers diverge from singles");
    }
    interleaving_ms += best_interleaving;
    class_sweep_ms += best_class;
    batch_ms += best_batch;
  }
  EVORD_CHECK(batch_sweeps <= 2,
              workload << ": cold batch ran " << batch_sweeps << " sweeps");
  return JsonRecord{}
      .add("engine", std::string("service"))
      .add("variant", std::string("cold_batch_overlap"))
      .add("workload", workload)
      .add("num_traces", static_cast<std::uint64_t>(traces.size()))
      .add("interleaving_ms", interleaving_ms)
      .add("class_sweep_ms", class_sweep_ms)
      .add("batch_ms", batch_ms)
      .add("batch_sweeps", batch_sweeps)
      .add("overlap", batch_ms > 0.0
                          ? (interleaving_ms + class_sweep_ms) / batch_ms
                          : 0.0);
}

// ---------------------------------------------------------------------
// 4. Hit ratio of a mixed workload through a shared registry cache.

JsonRecord run_hit_ratio(const std::string& workload, const Trace& trace) {
  TraceRegistry registry;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    // Clients re-register the trace each round, as an upload-style
    // service would; dedup lands them all on the same warm session.
    const auto session = registry.session(trace);
    for (const Semantics s :
         {Semantics::kInterleaving, Semantics::kCausal,
          Semantics::kInterval}) {
      session->relations(s);
    }
    session->deadlocks();
    session->races();
  }
  const auto cache_stats = registry.cache()->stats();
  const auto registry_stats = registry.stats();
  return JsonRecord{}
      .add("engine", std::string("service"))
      .add("variant", std::string("hit_ratio"))
      .add("workload", workload)
      .add("rounds", static_cast<std::uint64_t>(kRounds))
      .add("hits", cache_stats.hits)
      .add("misses", cache_stats.misses)
      .add("hit_ratio", cache_stats.hit_ratio())
      .add("cache_bytes", cache_stats.bytes)
      .add("trace_dedup_hits", registry_stats.trace_dedup_hits)
      .add("session_hits", registry_stats.session_hits);
}

std::vector<JsonRecord> run_service_sweep() {
  const Trace sat = theorem1_trace(tiny_sat());
  const Trace unsat = theorem1_trace(tiny_unsat());
  std::vector<JsonRecord> rows;
  rows.push_back(run_cold_vs_warm("theorem1_sat", sat));
  rows.push_back(run_cold_vs_warm("theorem1_unsat", unsat));
  rows.push_back(run_batch_vs_singles("theorem1_sat", sat, 24));
  rows.push_back(
      run_cold_batch_overlap("cold_pool_shaped", cold_pool_shaped_traces(8)));
  rows.push_back(run_hit_ratio("theorem1_sat", sat));
  return rows;
}

// Timed pair for the interactive benchmark runner.
void BM_ServiceColdSweep(benchmark::State& state) {
  const Trace t = theorem1_trace(tiny_sat());
  for (auto _ : state) {
    AnalysisSession session(std::make_shared<const Trace>(t));
    benchmark::DoNotOptimize(session.relations(Semantics::kCausal));
  }
}

void BM_ServiceWarmHit(benchmark::State& state) {
  const Trace t = theorem1_trace(tiny_sat());
  AnalysisSession session(std::make_shared<const Trace>(t));
  session.relations(Semantics::kCausal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.relations(Semantics::kCausal));
  }
}

BENCHMARK(BM_ServiceColdSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServiceWarmHit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!append_json_records("BENCH_service.json", run_service_sweep())) {
    return 1;
  }
  return 0;
}
