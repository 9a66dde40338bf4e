#include "layers.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "daemon/protocol.hpp"
#include "ordering/sat_oracle.hpp"
#include "ordering/witness.hpp"
#include "sat/encode_trace.hpp"
#include "service/registry.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace evbench {

using evord::ExactOptions;
using evord::RelationKind;
using evord::Semantics;
using evord::Trace;
using evord::VerdictState;

namespace {

double elapsed_ms(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

evord::service::PairQuery to_pair_query(const evord::daemon::PairQuerySpec& s) {
  evord::service::PairQuery q;
  q.relation = static_cast<RelationKind>(s.relation);
  q.semantics = static_cast<Semantics>(s.semantics);
  q.a = s.a;
  q.b = s.b;
  return q;
}

/// The default ladder rung that produced a verdict (what the anytime
/// engine hands its witness search).
ExactOptions rung_options(std::size_t rungs_tried) {
  const auto ladder = evord::AnytimeOptions::default_ladder();
  const evord::QueryBudget& rung =
      ladder[std::min(std::max<std::size_t>(rungs_tried, 1), ladder.size()) - 1];
  ExactOptions eo;
  eo.max_states = rung.max_states;
  eo.max_schedules = rung.max_schedules;
  eo.max_memory_bytes = rung.max_memory_bytes;
  return eo;
}

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back(Metric{name, value, unit});
}

}  // namespace

std::vector<AnytimeQuestion> questions_from_reference(const TraceInputs& in,
                                                      std::size_t num_traces,
                                                      std::size_t per_trace,
                                                      std::uint64_t seed) {
  evord::Rng rng(seed ^ 0x9e57);
  std::vector<AnytimeQuestion> out;
  for (std::size_t t = 0; t < num_traces; ++t) {
    const auto n = in.traces[t].num_events();
    for (std::size_t k = 0; k < per_trace; ++k) {
      AnytimeQuestion q;
      q.trace = static_cast<std::uint32_t>(t);
      q.which = static_cast<std::uint8_t>(k % 2);
      q.a = static_cast<std::uint32_t>(rng.below(n));
      q.b = static_cast<std::uint32_t>(rng.below(n - 1));
      if (q.b >= q.a) ++q.b;
      const auto& rel = in.refs[t].relations[static_cast<std::size_t>(q.semantics())];
      const bool holds =
          rel.holds(q.which == 0 ? RelationKind::kMHB : RelationKind::kCCW, q.a, q.b);
      q.expected = holds ? VerdictState::kProven : VerdictState::kRefuted;
      out.push_back(q);
    }
  }
  return out;
}

void replay_layers(const ReplayPlan& plan, Tracer& tracer,
                   std::vector<Metric>& out) {
  const std::size_t nt = plan.num_traces;
  const auto traces = static_cast<double>(nt);

  // ---- trace (parser) and service/registry ----
  evord::service::TraceRegistry registry;
  std::vector<std::shared_ptr<evord::service::AnalysisSession>> sessions;
  double parse_us = 0.0;
  double register_us = 0.0;
  for (std::size_t t = 0; t < nt; ++t) {
    std::uint64_t start = now_ns();
    Trace parsed = [&] {
      auto span = tracer.span("trace.parse_trace_string", t);
      return evord::parse_trace_string((*plan.texts)[t]);
    }();
    parse_us += elapsed_ms(start) * 1e3;
    start = now_ns();
    std::shared_ptr<const Trace> entry = [&] {
      auto span = tracer.span("registry.register_trace", t);
      return registry.register_trace(std::move(parsed));
    }();
    register_us += elapsed_ms(start) * 1e3;
    sessions.push_back(registry.session(entry));
  }
  add(out, "trace.parse_us", parse_us / traces, "us");
  add(out, "registry.register_us", register_us / traces, "us");

  for (std::size_t t = 0; plan.service != ReplayPlan::Service::kAnytime && t < nt;
       ++t) {
    evord::service::AnalysisSession& session = *sessions[t];
    std::vector<evord::service::PairQuery> batch;
    for (const auto& spec : full_batch((*plan.traces)[t])) {
      batch.push_back(to_pair_query(spec));
    }
    {
      auto span = tracer.span("service.query_batch", t);
      session.query_batch(batch);
    }
    if (plan.service == ReplayPlan::Service::kCold) {
      {
        auto span = tracer.span("service.races", t);
        session.races(evord::RaceDetector::kExact);
      }
      auto span = tracer.span("service.deadlocks", t);
      session.deadlocks();
    }
  }
  for (std::size_t i = 0; i < plan.pairs.size(); ++i) {
    const PairRequest& r = plan.pairs[i];
    auto span = tracer.span("service.pair_query", i);
    sessions[r.trace]->pair_query(to_pair_query(r.spec));
  }

  // ---- resilience: the questions through the sessions' anytime path ----
  double climb_ms = 0.0;
  double rungs = 0.0;
  double oracle_decided = 0.0;
  std::vector<std::size_t> rungs_of(plan.questions.size(), 1);
  for (std::size_t i = 0; i < plan.questions.size(); ++i) {
    const AnytimeQuestion& q = plan.questions[i];
    evord::service::AnalysisSession& session = *sessions[q.trace];
    const std::size_t climbs_before = session.anytime().ladder_climbs();
    evord::BoundedVerdict v;
    {
      auto span = tracer.span("resilience.anytime_query", i);
      v = q.which == 0 ? session.anytime_must_have_happened_before(
                             q.a, q.b, Semantics::kInterleaving)
                       : session.anytime_could_have_been_concurrent(q.a, q.b);
    }
    if (session.anytime().ladder_climbs() != climbs_before) {
      climb_ms += v.provenance.seconds_spent * 1e3;
    }
    rungs += static_cast<double>(v.provenance.rungs_tried);
    rungs_of[i] = v.provenance.rungs_tried;
    if (v.provenance.engine == "sat-oracle") oracle_decided += 1.0;
  }
  const auto questions = static_cast<double>(plan.questions.size());
  add(out, "resilience.ladder_ms_per_trace", climb_ms / traces, "ms");
  add(out, "resilience.rungs_per_query", ratio(rungs, questions), "count");
  add(out, "resilience.oracle_share", ratio(oracle_decided, questions), "ratio");

  double queries = 0.0;
  double hits = 0.0;
  double sweeps = 0.0;
  double computations = 0.0;
  for (const auto& session : sessions) {
    const evord::service::SessionStats s = session->stats();
    queries += static_cast<double>(s.queries);
    hits += static_cast<double>(s.cache_hits);
    sweeps += static_cast<double>(s.sweeps);
    computations += static_cast<double>(s.computations);
  }
  add(out, "service.cache_hit_ratio", ratio(hits, queries), "ratio");
  add(out, "service.sweeps_per_trace", sweeps / traces, "count");
  add(out, "service.computations_per_trace", computations / traces, "count");

  // ---- the exponential engines, called directly ----
  double ms[3] = {0.0, 0.0, 0.0};
  double race_ms = 0.0;
  double deadlock_ms = 0.0;
  evord::search::SearchStats total;
  static constexpr const char* kSweepSpan[3] = {
      "ordering.compute_exact.interleaving", "ordering.compute_exact.causal",
      "ordering.compute_exact.interval"};
  for (std::size_t t = 0; t < nt; ++t) {
    const Trace& trace = (*plan.traces)[t];
    for (std::size_t s = 0; s < 3; ++s) {
      const std::uint64_t start = now_ns();
      auto span = tracer.span(kSweepSpan[s], t);
      const auto r = evord::compute_exact(trace, static_cast<Semantics>(s),
                                          plan.sweep_options);
      ms[s] += elapsed_ms(start);
      total.merge(r.search);
    }
    ExactOptions race_options = plan.sweep_options;
    race_options.causal_data_edges = false;
    std::uint64_t start = now_ns();
    {
      auto span = tracer.span("race.detect_races_exact", t);
      total.merge(evord::detect_races_exact(trace, race_options).search);
    }
    race_ms += elapsed_ms(start);
    evord::DeadlockOptions deadlock_options;
    deadlock_options.max_states = plan.sweep_options.max_states;
    start = now_ns();
    {
      auto span = tracer.span("feasible.analyze_deadlocks", t);
      total.merge(evord::analyze_deadlocks(trace, deadlock_options).search);
    }
    deadlock_ms += elapsed_ms(start);
  }
  const double sweep_s = (ms[0] + ms[1] + ms[2] + race_ms + deadlock_ms) / 1e3;
  const auto states = static_cast<double>(total.states_visited);
  add(out, "ordering.interleaving_ms", ms[0] / traces, "ms");
  add(out, "ordering.causal_ms", ms[1] / traces, "ms");
  add(out, "ordering.interval_ms", ms[2] / traces, "ms");
  add(out, "race.exact_ms", race_ms / traces, "ms");
  add(out, "feasible.deadlock_ms", deadlock_ms / traces, "ms");
  add(out, "search.states_per_trace", states / traces, "count");
  add(out, "search.states_per_s", ratio(states, sweep_s), "1/s");
  add(out, "search.dedup_hit_ratio",
      ratio(static_cast<double>(total.dedup_hits),
            static_cast<double>(total.dedup_hits) + states),
      "ratio");
  add(out, "search.bytes_per_state",
      ratio(static_cast<double>(total.memo_bytes), states), "B");
  add(out, "search.sleep_pruned_per_trace",
      static_cast<double>(total.sleep_pruned) / traces, "count");

  // ---- SAT oracle: encode, build, per-question solves ----
  double encode_ms = 0.0;
  double clauses = 0.0;
  double build_ms = 0.0;
  double solve_ms = 0.0;
  evord::SatOracleStats sat;
  for (std::size_t t = 0; t < nt; ++t) {
    const Trace& trace = (*plan.traces)[t];
    std::uint64_t start = now_ns();
    {
      auto span = tracer.span("sat.TraceCnf", t);
      clauses += static_cast<double>(evord::TraceCnf(trace).formula().num_clauses());
    }
    encode_ms += elapsed_ms(start);
    start = now_ns();
    evord::SatOracle oracle(trace);
    {
      auto span = tracer.span("sat.oracle_build", t);
      oracle.feasible();
    }
    build_ms += elapsed_ms(start);
    for (std::size_t i = 0; i < plan.questions.size(); ++i) {
      const AnytimeQuestion& q = plan.questions[i];
      if (q.trace != t) continue;
      // Only queries that reached the solver count towards the solve
      // time: pair-memo hits and closure shortcuts make no SAT call.
      const std::uint64_t calls_before = oracle.stats().sat_calls;
      start = now_ns();
      auto span = tracer.span("sat.oracle_query", i);
      oracle.query(q.which == 0 ? RelationKind::kMHB : RelationKind::kCCW, q.a,
                   q.b, q.semantics());
      const double query_ms = elapsed_ms(start);
      if (oracle.stats().sat_calls > calls_before) solve_ms += query_ms;
    }
    const evord::SatOracleStats s = oracle.stats();
    sat.queries += s.queries;
    sat.sat_calls += s.sat_calls;
    sat.sat_undecided += s.sat_undecided;
    sat.pair_memo_hits += s.pair_memo_hits;
  }
  add(out, "sat.encode_ms", encode_ms / traces, "ms");
  add(out, "sat.clauses", clauses / traces, "count");
  add(out, "sat.build_ms", build_ms / traces, "ms");
  add(out, "sat.solve_us_per_call",
      ratio(solve_ms * 1e3, static_cast<double>(sat.sat_calls)), "us");
  add(out, "sat.calls_per_query",
      ratio(static_cast<double>(sat.sat_calls), static_cast<double>(sat.queries)),
      "count");
  add(out, "sat.pair_memo_hit_ratio",
      ratio(static_cast<double>(sat.pair_memo_hits),
            static_cast<double>(sat.queries)),
      "ratio");
  add(out, "sat.undecided_ratio",
      ratio(static_cast<double>(sat.sat_undecided),
            static_cast<double>(sat.sat_calls)),
      "ratio");

  // ---- witness extraction where a witness exists ----
  double witness_ms = 0.0;
  double attempted = 0.0;
  double found = 0.0;
  for (std::size_t i = 0; i < plan.questions.size(); ++i) {
    const AnytimeQuestion& q = plan.questions[i];
    const bool wants = q.which == 0 ? q.expected == VerdictState::kRefuted
                                    : q.expected == VerdictState::kProven;
    if (!wants) continue;
    const Trace& trace = (*plan.traces)[q.trace];
    const ExactOptions options = rung_options(rungs_of[i]);
    const std::uint64_t start = now_ns();
    auto span = tracer.span("ordering.witness", i);
    const auto w = q.which == 0
                       ? evord::refute_must_happen_before(
                             trace, q.a, q.b, Semantics::kInterleaving, options)
                       : evord::witness_could_be_concurrent(trace, q.a, q.b,
                                                            options);
    witness_ms += elapsed_ms(start);
    attempted += 1.0;
    if (w.has_value()) found += 1.0;
  }
  add(out, "witness.ms_per_query", ratio(witness_ms, attempted), "ms");
  add(out, "witness.found_ratio", ratio(found, attempted), "ratio");
}

void transport_probes(const DaemonProcess& daemon, const TraceInputs& warm,
                      std::uint64_t seed, Tracer& tracer,
                      std::vector<Metric>& out) {
  namespace d = evord::daemon;
  constexpr std::size_t kRequests = 4000;
  constexpr std::size_t kEchoes = 20000;

  // Single-client warm pair_query round trip, and the same queries
  // answered by an in-process AnalysisSession.
  const std::vector<Trace> one{warm.traces[0]};
  const std::vector<PairRequest> requests = pair_requests(seed, one, kRequests);
  d::DaemonClient client(client_options(daemon, "probe", seed));
  const d::TraceReply reg = client.register_trace(warm.texts[0]);
  client.batch_query(reg.fingerprint, full_batch(warm.traces[0]));
  std::vector<double> rtt_us;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::uint64_t start = now_ns();
    auto span = tracer.span("daemon.pair_query", i);
    client.pair_query(reg.fingerprint, requests[i].spec);
    rtt_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  evord::service::AnalysisSession session(
      std::make_shared<const Trace>(warm.traces[0]));
  for (const auto& spec : full_batch(warm.traces[0])) {
    session.pair_query(to_pair_query(spec));
  }
  std::vector<double> local_us;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const evord::service::PairQuery q = to_pair_query(requests[i].spec);
    const std::uint64_t start = now_ns();
    session.pair_query(q);
    local_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  add(out, "daemon.roundtrip_us_p50", percentile(rtt_us, 0.5), "us");
  add(out, "daemon.roundtrip_us_p99", percentile(rtt_us, 0.99), "us");
  add(out, "daemon.overhead_us_p50",
      percentile(rtt_us, 0.5) - percentile(local_us, 0.5), "us");
  add(out, "service.pair_query_us", percentile(local_us, 0.5), "us");

  // write_frame/read_frame echo of one pair frame over a socketpair.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::thread echo([fd = fds[1]] {
    d::Frame frame;
    while (d::read_frame(fd, frame) == d::ReadResult::kFrame) {
      if (!d::write_frame(fd, frame)) break;
    }
  });
  d::WireWriter w;
  w.u64(reg.fingerprint);
  w.u8(0);
  w.u8(1);
  w.u32(1);
  w.u32(2);
  const d::Frame request = d::make_frame(d::FrameType::kPairQuery, 1, w.take());
  std::vector<double> echo_us;
  d::Frame reply;
  for (std::size_t i = 0; i < kEchoes; ++i) {
    const std::uint64_t start = now_ns();
    d::write_frame(fds[0], request);
    d::read_frame(fds[0], reply);
    echo_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  ::shutdown(fds[0], SHUT_WR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  add(out, "protocol.socketpair_rtt_us", percentile(echo_us, 0.5), "us");

  // No-op task handoff through the executor the daemon uses.
  evord::ThreadPool pool(2);
  std::vector<double> handoff_us;
  for (std::size_t i = 0; i < kEchoes; ++i) {
    const std::uint64_t start = now_ns();
    pool.submit([] {}).get();
    handoff_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  add(out, "thread_pool.handoff_us_p50", percentile(handoff_us, 0.5), "us");

  const d::HealthReply health = client.health();
  add(out, "daemon.sheds", static_cast<double>(health.sheds), "count");
  add(out, "daemon.rejections", static_cast<double>(health.rejections), "count");
}

}  // namespace evbench
