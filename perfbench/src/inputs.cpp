#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <unordered_set>

#include "ordering/sat_oracle.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace evbench {

using evord::ExactOptions;
using evord::RelationKind;
using evord::Rng;
using evord::Semantics;
using evord::Trace;
using evord::VerdictState;

namespace {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr Semantics kSemantics[] = {Semantics::kInterleaving,
                                    Semantics::kCausal, Semantics::kInterval};

/// Runs f(i) for i in [0, n) on up to four threads (the daemon is idle
/// while references are built, so this only shortens the run).
template <class F>
void parallel_indices(std::size_t n, F&& f) {
  const std::size_t workers = std::min<std::size_t>(4, n);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += workers) f(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

Trace small_trace(Rng& rng) {
  evord::SemTraceConfig config;
  config.num_processes = 4;
  config.num_semaphores = 2;
  config.num_variables = 2;
  config.num_events = 16;
  return evord::random_semaphore_trace(config, rng);
}

}  // namespace

std::size_t sync_state_count(const Trace& trace, std::size_t cap) {
  const std::size_t procs = trace.num_processes();
  const std::size_t sems = trace.semaphores().size();
  const std::size_t vars = trace.event_vars().size();
  std::vector<std::vector<evord::EventId>> preds(trace.num_events());
  for (const auto& [a, b] : trace.dependences()) preds[b].push_back(a);

  // A state is a string of bytes: one position per process, then one
  // count per semaphore, then one posted flag per event variable.
  std::string start(procs + sems + vars, '\0');
  for (std::size_t s = 0; s < sems; ++s) {
    start[procs + s] = static_cast<char>(trace.semaphores()[s].initial);
  }
  for (std::size_t v = 0; v < vars; ++v) {
    start[procs + sems + v] = trace.event_vars()[v].initially_posted ? 1 : 0;
  }
  auto done = [&](const std::string& state, evord::EventId e) {
    const evord::Event& ev = trace.event(e);
    return static_cast<unsigned char>(state[ev.process]) > ev.index_in_process;
  };
  auto finished = [&](const std::string& state, evord::ProcId p) {
    return static_cast<unsigned char>(state[p]) >= trace.program_order(p).size();
  };

  std::unordered_set<std::string> seen{start};
  std::vector<std::string> frontier{start};
  while (!frontier.empty() && seen.size() <= cap) {
    const std::string state = std::move(frontier.back());
    frontier.pop_back();
    for (evord::ProcId p = 0; p < procs; ++p) {
      if (finished(state, p)) continue;
      const evord::EventId id =
          trace.program_order(p)[static_cast<unsigned char>(state[p])];
      const evord::Event& e = trace.event(id);
      const evord::EventId fork = trace.process(p).creating_fork;
      if (e.index_in_process == 0 && fork != evord::kNoEvent && !done(state, fork)) {
        continue;
      }
      bool enabled = true;
      for (evord::EventId pred : preds[id]) enabled = enabled && done(state, pred);
      std::string next = state;
      ++next[p];
      char* count = e.object < sems ? &next[procs + e.object] : nullptr;
      char* posted = e.object < vars ? &next[procs + sems + e.object] : nullptr;
      switch (e.kind) {
        case evord::EventKind::kSemP:
          enabled = enabled && *count > 0;
          if (enabled) --*count;
          break;
        case evord::EventKind::kSemV:
          if (!(trace.semaphores()[e.object].binary && *count == 1)) ++*count;
          break;
        case evord::EventKind::kWait:
          enabled = enabled && *posted != 0;
          break;
        case evord::EventKind::kPost:
          *posted = 1;
          break;
        case evord::EventKind::kClear:
          *posted = 0;
          break;
        case evord::EventKind::kJoin:
          enabled = enabled && finished(state, e.object);
          break;
        default:
          break;
      }
      if (enabled && seen.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  return seen.size();
}

bool TraceReference::truncated() const {
  for (const auto& r : relations) {
    if (r.truncated) return true;
  }
  return races.truncated || deadlock.truncated;
}

namespace {

/// Fills ref.relations under all three semantics, then races and
/// deadlocks, stopping early (returning false) once `keep` rejects a
/// relations run.
template <class Keep>
bool fill_reference(const Trace& trace, const ExactOptions& options,
                    TraceReference& ref, Keep&& keep) {
  for (std::size_t s = 0; s < 3; ++s) {
    ref.relations[s] = evord::compute_exact(trace, kSemantics[s], options);
    if (!keep(ref.relations[s])) return false;
  }
  ExactOptions race_options = options;
  race_options.causal_data_edges = false;
  ref.races = evord::detect_races_exact(trace, race_options);
  evord::DeadlockOptions deadlock_options;
  deadlock_options.stepper.respect_dependences = options.respect_dependences;
  deadlock_options.max_states = options.max_states;
  ref.deadlock = evord::analyze_deadlocks(trace, deadlock_options);
  return !ref.truncated();
}

}  // namespace

TraceReference exact_reference(const Trace& trace,
                               const ExactOptions& options) {
  TraceReference ref;
  fill_reference(trace, options, ref,
                 [](const evord::OrderingRelations&) { return true; });
  return ref;
}

bool expected_answer(const TraceReference& ref,
                     const evord::daemon::PairQuerySpec& query) {
  return ref.relations[query.semantics].holds(
      static_cast<RelationKind>(query.relation), query.a, query.b);
}

TraceInputs small_traces(std::uint64_t seed, std::size_t count) {
  // The band of reachable synchronization states (roughly the 10th to
  // 35th percentile of these traces) keeps the cost of analysing the set
  // -- the warm-up in setup_s -- about the same for every seed: drawn
  // unscreened, eight traces cost 2x more on one seed than on another.
  constexpr std::size_t kLow = 100;
  constexpr std::size_t kHigh = 160;
  TraceInputs in;
  Rng rng(stream_seed(seed, 0x5a11));
  while (in.traces.size() < count) {
    Trace t = small_trace(rng);
    const std::size_t states = sync_state_count(t, kHigh);
    if (states >= kLow && states <= kHigh) in.traces.push_back(std::move(t));
  }
  in.refs.resize(count);
  parallel_indices(count, [&](std::size_t i) {
    in.refs[i] = exact_reference(in.traces[i], ExactOptions{});
  });
  for (const Trace& t : in.traces) in.texts.push_back(evord::write_trace(t));
  return in;
}

namespace {

constexpr char kUniverseFile[] = EVBENCH_DATA_DIR "/cold_universe.txt";

/// Candidate `index` of the cold_traces universe: even indices are
/// random semaphore traces (6 processes, 32 events), odd ones random
/// Post/Wait traces (4 processes, 28 events).
Trace cold_candidate(std::uint64_t index) {
  Rng rng(stream_seed(0, 0xc01d0000 + index));
  if (index % 2 == 0) {
    evord::SemTraceConfig config;
    config.num_processes = 6;
    config.num_semaphores = 3;
    config.num_variables = 3;
    config.num_events = 32;
    return evord::random_semaphore_trace(config, rng);
  }
  evord::EventTraceConfig config;
  config.num_processes = 4;
  config.num_event_vars = 2;
  config.num_variables = 2;
  config.num_events = 28;
  return evord::random_event_trace(config, rng);
}

/// FNV-1a over the texts of the kept candidates, in index order: ties
/// the committed universe to the generators it was screened from.
std::uint64_t universe_digest(const std::vector<std::uint64_t>& kept) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t index : kept) {
    for (const char ch : evord::write_trace(cold_candidate(index))) {
      h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// The kept candidate indices of the committed universe, after checking
/// that the generators still produce the traces it was screened from.
std::vector<std::uint64_t> load_universe() {
  std::ifstream file(kUniverseFile);
  if (!file) throw std::runtime_error(std::string("cannot read ") + kUniverseFile);
  std::uint64_t candidates = 0;
  std::size_t expected_kept = 0;
  std::string digest;
  std::string bits;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "candidates") {
      fields >> candidates;
    } else if (key == "kept") {
      fields >> expected_kept;
    } else if (key == "digest") {
      fields >> digest;
    } else {
      bits += key;  // a line of the bitmap
    }
  }
  std::vector<std::uint64_t> kept;
  for (std::uint64_t k = 0; k < candidates && k / 4 < bits.size(); ++k) {
    const int nibble = std::stoi(bits.substr(k / 4, 1), nullptr, 16);
    if ((nibble >> (k % 4)) & 1) kept.push_back(k);
  }
  std::ostringstream actual;
  actual << std::hex << universe_digest(kept);
  if (kept.size() != expected_kept || actual.str() != digest) {
    throw std::runtime_error(std::string(kUniverseFile) +
                             " does not match the trace generators; "
                             "regenerate it with --emit-cold-universe");
  }
  return kept;
}

}  // namespace

void emit_cold_universe(const std::string& path, std::size_t kept_target) {
  // The band: a candidate is kept only if its interleaving and causal
  // sweeps each expand at most kBand states (checked first, so a
  // rejected candidate costs at most two capped sweeps).  Unscreened, the
  // cost of a 6-process 32-event random trace spans four orders of
  // magnitude (one trace can take seconds), which makes per-seed
  // throughput a lottery.  The byte budget, about twice what kBand states
  // take, only cuts the screening of far-out candidates short.
  constexpr std::uint64_t kBand = 10'000;
  ExactOptions band;
  band.max_states = kBand;
  band.max_memory_bytes = std::uint64_t{256} << 10;
  auto in_band = [&](const evord::OrderingRelations& r) {
    return !r.truncated && (r.semantics == Semantics::kInterval ||
                            r.search.states_visited <= kBand);
  };
  std::vector<std::uint64_t> kept;
  std::string bits;
  int nibble = 0;
  std::uint64_t next = 0;
  while (kept.size() < kept_target) {
    // Screened in fixed-size batches, decided in index order.
    constexpr std::size_t kBatch = 64;
    std::vector<char> keep(kBatch, 0);
    parallel_indices(kBatch, [&](std::size_t i) {
      TraceReference ref;
      keep[i] = fill_reference(cold_candidate(next + i), band, ref, in_band);
    });
    for (std::size_t i = 0; i < kBatch && kept.size() < kept_target; ++i, ++next) {
      if (keep[i]) {
        kept.push_back(next);
        nibble |= 1 << (next % 4);
      }
      if (next % 4 == 3) {
        bits += "0123456789abcdef"[nibble];
        nibble = 0;
      }
    }
  }
  if (next % 4 != 0) bits += "0123456789abcdef"[nibble];
  std::ofstream out(path);
  out << "# The cold_traces universe.  Candidate k is the trace generated from\n"
         "# index k (even: random semaphore trace, 6 processes, 32 events; odd:\n"
         "# random Post/Wait trace, 4 processes, 28 events).  Bit k of the\n"
         "# bitmap below (hex digit k/4, bit k%4) is set when the candidate's\n"
         "# interleaving and causal sweeps each expanded at most 10000 states\n"
         "# when this file was written, so the pool does not change with the\n"
         "# engines.  Written by: evbench --emit-cold-universe <this file>\n"
      << "candidates " << next << "\nkept " << kept.size() << "\ndigest " << std::hex
      << universe_digest(kept) << '\n';
  for (std::size_t i = 0; i < bits.size(); i += 64) out << bits.substr(i, 64) << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

TraceInputs cold_pool(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> universe = load_universe();
  if (count > universe.size()) {
    throw std::invalid_argument("cold pool larger than the committed universe");
  }
  // A seeded partial shuffle picks `count` distinct candidates.
  Rng rng(stream_seed(seed, 0xc01d));
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(universe[i], universe[i + rng.below(universe.size() - i)]);
  }
  TraceInputs in;
  for (std::size_t i = 0; i < count; ++i) {
    in.traces.push_back(cold_candidate(universe[i]));
    in.texts.push_back(evord::write_trace(in.traces.back()));
  }
  in.refs.resize(count);
  parallel_indices(count, [&](std::size_t i) {
    in.refs[i] = exact_reference(in.traces[i], ExactOptions{});
  });
  for (const TraceReference& ref : in.refs) {
    if (ref.truncated()) throw std::runtime_error("cold pool reference truncated");
  }
  return in;
}

std::vector<PairRequest> pair_requests(std::uint64_t seed,
                                       const std::vector<Trace>& traces,
                                       std::size_t count) {
  Rng rng(stream_seed(seed, 0x9a19));
  std::vector<PairRequest> out(count);
  for (PairRequest& r : out) {
    r.trace = static_cast<std::uint32_t>(rng.below(traces.size()));
    const auto n = traces[r.trace].num_events();
    r.spec.relation = static_cast<std::uint8_t>(rng.below(evord::kNumRelationKinds));
    r.spec.semantics = static_cast<std::uint8_t>(rng.below(3));
    r.spec.a = static_cast<std::uint32_t>(rng.below(n));
    r.spec.b = static_cast<std::uint32_t>(rng.below(n - 1));
    if (r.spec.b >= r.spec.a) ++r.spec.b;
  }
  return out;
}

std::vector<evord::daemon::PairQuerySpec> full_batch(const Trace& trace) {
  std::vector<evord::daemon::PairQuerySpec> out;
  const auto n = static_cast<std::uint32_t>(trace.num_events());
  for (std::uint8_t s = 0; s < 3; ++s) {
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = 0; b < n; ++b) {
        if (a == b) continue;
        evord::daemon::PairQuerySpec q;
        q.relation = static_cast<std::uint8_t>((a + b + s) % 6);
        q.semantics = s;
        q.a = a;
        q.b = b;
        out.push_back(q);
      }
    }
  }
  return out;
}

AnytimeInputs anytime_inputs(std::uint64_t seed, std::size_t rounds,
                             bool smoke) {
  AnytimeInputs in;
  if (smoke) {
    in.traces.push_back(evord::wide_fork_trace(4, 3));
  } else {
    in.traces.push_back(evord::wide_fork_trace(10, 3));
    in.traces.push_back(evord::wide_fork_trace(12, 3));
  }

  // Reference relations where the untruncated exact engine finishes
  // within a budget; the SAT oracle answers the rest.
  ExactOptions ref_budget;
  ref_budget.max_states = std::size_t{1} << 18;
  ref_budget.max_schedules = std::uint64_t{1} << 18;
  std::vector<std::array<std::optional<evord::OrderingRelations>, 2>> exact(
      in.traces.size());
  parallel_indices(in.traces.size() * 2, [&](std::size_t i) {
    const std::size_t t = i / 2;
    const Semantics s = i % 2 == 0 ? Semantics::kInterleaving : Semantics::kCausal;
    evord::OrderingRelations r = evord::compute_exact(in.traces[t], s, ref_budget);
    if (!r.truncated) exact[t][i % 2] = std::move(r);
  });

  Rng rng(stream_seed(seed, 0xa5c));
  std::vector<std::unique_ptr<evord::SatOracle>> oracles(in.traces.size());
  std::set<std::tuple<std::size_t, std::uint8_t, std::uint32_t, std::uint32_t>> asked;
  // Appends `count` settled questions on trace t to `round`.
  auto ask = [&](std::size_t t, std::size_t count,
                 std::vector<AnytimeQuestion>& round) {
    const Trace& trace = in.traces[t];
    const auto n = trace.num_events();
    std::size_t made = 0;
    for (std::size_t attempt = 0; made < count && attempt < 50 * count; ++attempt) {
      AnytimeQuestion q;
      q.trace = static_cast<std::uint32_t>(t);
      // Stratified by kind and by the pair's direction in process order
      // (process id, then event id): the witness search schedules lower
      // processes first, so refuting "a before b" costs a ~0.3 s walk
      // when a's process comes first and nothing when b's does.  Fixed
      // counts per slot keep a round's cost the same across seeds; of
      // every 8 questions, 5 are MHB (2 forward) and 3 CCW (2 forward).
      // That puts ~18% of the questions in the slow class, so p95 sits
      // inside it, and the median inside the largest fast class (refuted
      // MHB with a counterexample at hand) rather than on a class
      // boundary.
      const std::size_t slot = made % 8;
      q.which = slot < 5 ? 0 : 1;
      const bool forward = slot < 2 || slot == 5 || slot == 6;
      q.a = static_cast<std::uint32_t>(rng.below(n));
      q.b = static_cast<std::uint32_t>(rng.below(n - 1));
      if (q.b >= q.a) ++q.b;
      if ((std::pair(trace.event(q.a).process, q.a) <
           std::pair(trace.event(q.b).process, q.b)) != forward) {
        std::swap(q.a, q.b);
      }
      if (!asked.insert({t, q.which, q.a, q.b}).second) continue;
      const RelationKind kind = q.which == 0 ? RelationKind::kMHB : RelationKind::kCCW;
      bool holds = false;
      if (const auto& r = exact[t][q.which]; r.has_value()) {
        holds = r->holds(kind, q.a, q.b);
      } else {
        if (oracles[t] == nullptr) oracles[t] = std::make_unique<evord::SatOracle>(trace);
        const evord::OracleVerdict v = oracles[t]->query(kind, q.a, q.b, q.semantics());
        if (v == evord::OracleVerdict::kUnknown) continue;
        holds = v == evord::OracleVerdict::kProven;
      }
      q.expected = holds ? VerdictState::kProven : VerdictState::kRefuted;
      round.push_back(q);
      ++made;
    }
    if (made < count) {
      throw std::runtime_error("anytime inputs: too few settled questions");
    }
  };
  in.rounds.resize(rounds);
  for (auto& round : in.rounds) {
    for (std::size_t t = 0; t < in.traces.size(); ++t) {
      ask(t, smoke ? 8 : 64, round);
    }
  }
  for (const Trace& t : in.traces) in.texts.push_back(evord::write_trace(t));
  return in;
}

}  // namespace evbench
