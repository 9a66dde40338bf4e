#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "daemon/client.hpp"
#include "inputs.hpp"
#include "layers.hpp"

namespace evbench {

namespace {

namespace d = evord::daemon;
using evord::VerdictState;

/// What one daemon phase measured.  Latencies are of the workload's
/// primary request; `reader_ms` holds the cold_traces reader's pairs.
struct Outcome {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> started_ns;  ///< per latency; pair clients only
  std::vector<double> reader_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t decided = 0;
  std::uint64_t completed = 0;  ///< primary units finished (pairs/traces/questions)
  std::uint64_t start_ns = 0;  ///< when the timed window opened
  double elapsed_s = 0.0;

  void check(bool ok, bool decided_answer = true) {
    ++attempted;
    if (!ok) {
      ++failed;
    } else if (decided_answer) {
      ++decided;
    }
  }
  void absorb(const Outcome& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    started_ns.insert(started_ns.end(), o.started_ns.begin(), o.started_ns.end());
    reader_ms.insert(reader_ms.end(), o.reader_ms.begin(), o.reader_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    decided += o.decided;
    completed += o.completed;
  }
};

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// Registers every trace; with `warm`, also sends each trace's full
/// batch (every pair, all three semantics) and checks every answer, so
/// the tenant cache holds all relations afterwards.
std::vector<std::uint64_t> register_all(d::DaemonClient& client,
                                        const TraceInputs& in, bool warm,
                                        Outcome& check) {
  std::vector<std::uint64_t> fps;
  for (std::size_t t = 0; t < in.traces.size(); ++t) {
    const d::TraceReply reg = client.register_trace(in.texts[t]);
    check.check(reg.ok() && reg.num_events == in.traces[t].num_events());
    fps.push_back(reg.fingerprint);
    if (!warm) continue;
    const auto specs = full_batch(in.traces[t]);
    const d::BatchReply batch = client.batch_query(reg.fingerprint, specs);
    bool right = batch.ok() && batch.values.size() == specs.size();
    for (std::size_t i = 0; right && i < specs.size(); ++i) {
      right = batch.values[i] == expected_answer(in.refs[t], specs[i]);
    }
    check.check(right);
  }
  return fps;
}

/// Set-ups per run: setup_s is their median, because one set-up (a
/// process start and a few milliseconds of requests) jitters by tens of
/// percent.
constexpr int kSetups = 21;

/// Starts a daemon and runs `setup` on it `reps` times, keeping the last
/// daemon; setup_s is the median of the repetitions.
template <class Setup>
std::unique_ptr<DaemonProcess> timed_setups(int reps, Setup&& setup,
                                            double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<DaemonProcess> daemon;
  for (int r = 0; r < reps; ++r) {
    daemon.reset();
    const std::uint64_t start = now_ns();
    daemon = std::make_unique<DaemonProcess>("s" + std::to_string(r));
    setup(*daemon);
    times.push_back(ms_since(start) / 1e3);
  }
  setup_s = median(times);
  return daemon;
}

/// Closed-loop warm pair_query client: cycles through `requests` from
/// `go` until `stop`, checking every reply against the exact reference.
void pair_client(const DaemonProcess& daemon, const std::string& tenant,
                 std::uint64_t seed, const std::vector<PairRequest>& requests,
                 const std::vector<std::uint64_t>& fps, const TraceInputs& in,
                 const std::atomic<bool>& go, const std::atomic<bool>& stop,
                 Tracer& tracer, Outcome& out) {
  std::vector<double>& latency = out.latency_ms;
  latency.reserve(1 << 21);
  out.started_ns.reserve(1 << 21);
  d::DaemonClient client(client_options(daemon, tenant, seed));
  client.health();  // connect and say hello before the clock starts
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const PairRequest& r = requests[i % requests.size()];
    const std::uint64_t start = now_ns();
    d::BoolReply reply;
    {
      auto span = tracer.span("client.pair_query", seed + i);
      reply = client.pair_query(fps[r.trace], r.spec);
    }
    latency.push_back(ms_since(start));
    out.started_ns.push_back(start);
    out.check(reply.ok() && reply.value == expected_answer(in.refs[r.trace], r.spec));
  }
  out.completed = latency.size();
}

/// A phase's headline latency percentiles and rate.
struct Headline {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double per_s = 0.0;
};

Headline whole_run(const Outcome& o, double tail_q) {
  return {percentile(o.latency_ms, 0.5), percentile(o.latency_ms, tail_q),
          static_cast<double>(o.completed) / o.elapsed_s};
}

/// Medians, over the phase's whole 1-second windows, of each window's
/// p50, tail percentile and request rate: a host preemption burst then
/// moves one window instead of the run's tail.  Needs started_ns.
Headline windowed(const Outcome& o, double tail_q) {
  const auto windows = static_cast<std::size_t>(o.elapsed_s);
  if (windows == 0) return whole_run(o, tail_q);
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < o.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>((o.started_ns[i] - o.start_ns) / 1'000'000'000);
    if (w < windows) by_window[w].push_back(o.latency_ms[i]);
  }
  std::vector<double> p50, tail, rate;
  for (const auto& w : by_window) {
    p50.push_back(percentile(w, 0.5));
    tail.push_back(percentile(w, tail_q));
    rate.push_back(static_cast<double>(w.size()));
  }
  return {median(p50), median(tail), median(rate)};
}

void add_end_to_end(Result& result, double setup_s, const Outcome& o,
                    const Headline& h, double rss_mb) {
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, o.attempted));
  const double decided = static_cast<double>(o.decided) / attempted;
  const double failed = static_cast<double>(o.failed) / attempted;
  auto add = [&](const char* name, double value, const char* unit) {
    result.metrics.push_back(Metric{name, value, unit});
  };
  add("setup_s", setup_s, "s");
  add("latency_p50_ms", h.p50_ms, "ms");
  add("latency_tail_ms", h.tail_ms, "ms");
  add("throughput_per_s", h.per_s, "1/s");
  add("ok_ratio", 1.0 - failed, "ratio");
  add("peak_rss_mb", rss_mb, "MB");
  result.attempted = o.attempted;
  result.failed = o.failed;
  std::ostringstream os;
  os << "setup_s=" << setup_s << " s (median of " << kSetups
     << ") decided_ratio=" << decided << " failed_ratio=" << failed
     << " peak_rss_mb=" << rss_mb << " MB (attempted=" << o.attempted
     << ", failed=" << o.failed << ')';
  note(os.str());
}

double tracing_overhead(const Outcome& untraced, const Outcome& traced) {
  const std::size_t n = std::min(untraced.latency_ms.size(), traced.latency_ms.size());
  if (n == 0) return 0.0;
  const std::vector<double> a(untraced.latency_ms.begin(), untraced.latency_ms.begin() + n);
  const std::vector<double> b(traced.latency_ms.begin(), traced.latency_ms.begin() + n);
  return mean(b) / mean(a) - 1.0;
}

/// The traced run's shared tail: transport probes, the in-process layer
/// replay, the tracing overhead, a self-time table, and the span file.
void finish_traced(const Config& c, const DaemonProcess& daemon,
                   const TraceInputs& probe_traces, const ReplayPlan& plan,
                   const Outcome& untraced, const Outcome& traced,
                   Tracer& tracer, Result& result) {
  transport_probes(daemon, probe_traces, c.seed, tracer, result.metrics);
  replay_layers(plan, tracer, result.metrics);
  result.metrics.push_back(
      Metric{"tracing.overhead_ratio", tracing_overhead(untraced, traced), "ratio"});
  for (const auto& [name, t] : self_times(tracer.spans())) {
    std::ostringstream os;
    os << "span " << name << ": n=" << t.count << " total_ms=" << t.total_ms
       << " self_ms=" << t.self_ms;
    note(os.str());
  }
  write_spans(".bench_build/spans-" + c.workload + "-" + std::to_string(c.seed) +
                  ".jsonl",
              tracer.spans());
  Outcome both = untraced;
  both.absorb(traced);
  result.attempted = both.attempted;
  result.failed = both.failed;
}

// ------------------------------------------------------------ warm_pairs

Result warm_pairs(const Config& c) {
  constexpr int kClients = 2;
  TraceInputs in = small_traces(c.seed, c.smoke ? 2 : 8);
  std::vector<std::vector<PairRequest>> streams;
  for (int k = 0; k < kClients; ++k) {
    streams.push_back(pair_requests(c.seed * 7919 + k, in.traces, 1 << 16));
  }
  if (c.corrupt_reference) {
    const PairRequest& r = streams[0][0];
    auto& m = in.refs[r.trace].relations[r.spec.semantics]
                  [static_cast<evord::RelationKind>(r.spec.relation)];
    if (m.holds(r.spec.a, r.spec.b)) {
      m.reset(r.spec.a, r.spec.b);
    } else {
      m.set(r.spec.a, r.spec.b);
    }
  }

  Outcome setup_check;
  std::vector<std::uint64_t> fps;
  auto setup = [&](DaemonProcess& daemon, const std::string& tenant) {
    d::DaemonClient client(client_options(daemon, tenant, c.seed));
    fps = register_all(client, in, /*warm=*/true, setup_check);
  };
  double setup_s = 0.0;
  auto daemon = timed_setups(kSetups, [&](DaemonProcess& dp) { setup(dp, "warm"); }, setup_s);

  auto phase = [&](const std::string& tenant, double seconds, bool traced,
                   Tracer& merged) {
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<Outcome> outs(kClients);
    std::vector<Tracer> tracers(kClients, Tracer(traced));
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        pair_client(*daemon, tenant, c.seed * 31 + k, streams[k], fps, in, go,
                    stop, tracers[k], outs[k]);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Outcome total;
    total.start_ns = now_ns();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (auto& t : threads) t.join();
    total.elapsed_s = ms_since(total.start_ns) / 1e3;
    for (int k = 0; k < kClients; ++k) {
      total.absorb(outs[k]);
      merged.absorb(tracers[k]);
    }
    return total;
  };

  Result result;
  if (!c.trace) {
    Tracer off(false);
    Outcome o = phase("warm", c.seconds, false, off);
    // The tail reported is p90, not p99: on a shared 4-vCPU host the p99
    // of a ~45 us round trip moves 30-50% between whole runs with the
    // host's preemption state, which would swamp any change in the code.
    const Headline h = windowed(o, 0.90);
    note("warm_pairs, whole run: " + describe_latency("pair", o.latency_ms, 0.99, "us") +
         " pair_qps=" + std::to_string(o.completed / o.elapsed_s) + " 1/s");
    note("warm_pairs, median of " + std::to_string(static_cast<int>(o.elapsed_s)) +
         " 1-s windows: pair_p50_us=" + std::to_string(h.p50_ms * 1e3) +
         " us pair_p90_us=" + std::to_string(h.tail_ms * 1e3) +
         " us pair_qps=" + std::to_string(h.per_s) + " 1/s");
    add_end_to_end(result, setup_s, o, h, daemon->peak_rss_mb());
  } else {
    Tracer off(false);
    Tracer tracer(true);
    const Outcome a = phase("warm", c.seconds / 2, false, off);
    setup(*daemon, "warm-traced");
    const Outcome b = phase("warm-traced", c.seconds / 2, true, tracer);
    ReplayPlan plan;
    plan.traces = &in.traces;
    plan.texts = &in.texts;
    plan.num_traces = in.traces.size();
    plan.service = ReplayPlan::Service::kPairs;
    plan.pairs.assign(streams[0].begin(), streams[0].begin() + 20000);
    plan.questions = questions_from_reference(in, in.traces.size(), 8, c.seed);
    finish_traced(c, *daemon, in, plan, a, b, tracer, result);
  }
  if (setup_check.failed != 0) {
    note("warm-up replies disagreed with the reference");
    result.failed += setup_check.failed;
  }
  return result;
}

// ----------------------------------------------------------- cold_traces

/// Pool size: the writer runs the whole pool, whatever the build's
/// speed, so every build is measured on the same traces.  At 50 traces
/// per second of `seconds` it finishes in about 0.8 x `seconds` on a
/// 4-CPU x86 box (~60 traces/s); a build 4x slower still ends well
/// within the run's time limit.
std::size_t cold_pool_size(const Config& c) {
  if (c.smoke) return 6;
  return static_cast<std::size_t>(std::ceil(c.seconds * 50.0));
}

Result cold_traces(const Config& c) {
  const std::uint64_t inputs_start = now_ns();
  TraceInputs pool = cold_pool(c.seed, cold_pool_size(c));
  TraceInputs readers = small_traces(c.seed + 1, c.smoke ? 1 : 4);
  const std::vector<PairRequest> reader_requests =
      pair_requests(c.seed * 7919 + 5, readers.traces, 1 << 16);
  if (c.corrupt_reference) {
    pool.refs[0].deadlock.can_deadlock = !pool.refs[0].deadlock.can_deadlock;
  }
  std::vector<std::vector<d::PairQuerySpec>> batches;
  for (const auto& t : pool.traces) batches.push_back(full_batch(t));
  note("cold_traces: pool of " + std::to_string(pool.traces.size()) +
       " traces and its references built in " +
       std::to_string(ms_since(inputs_start) / 1e3) + " s");

  Outcome setup_check;
  std::vector<std::uint64_t> reader_fps;
  auto setup = [&](DaemonProcess& daemon, const std::string& tenant) {
    d::DaemonClient client(client_options(daemon, tenant, c.seed));
    reader_fps = register_all(client, readers, /*warm=*/true, setup_check);
  };
  double setup_s = 0.0;
  auto daemon = timed_setups(kSetups, [&](DaemonProcess& dp) { setup(dp, "cold"); }, setup_s);

  // The writer works through pool traces [0, count) to completion.
  auto phase = [&](const std::string& tenant, std::size_t count, bool traced,
                   Tracer& merged) {
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    Outcome reader;
    Tracer reader_tracer(traced);
    std::thread reader_thread([&] {
      pair_client(*daemon, tenant, c.seed * 31 + 7, reader_requests, reader_fps,
                  readers, go, stop, reader_tracer, reader);
    });
    Tracer tracer(traced);
    Outcome writer;
    d::DaemonClient client(client_options(*daemon, tenant, c.seed * 31 + 3));
    client.health();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t start = now_ns();
    go.store(true, std::memory_order_release);
    for (std::size_t t = 0; t < count; ++t) {
      const TraceReference& ref = pool.refs[t];
      const std::uint64_t t0 = now_ns();
      auto trace_span = tracer.span("cold.trace", t);
      d::TraceReply reg;
      {
        auto span = tracer.span("client.register_trace", t);
        reg = client.register_trace(pool.texts[t]);
      }
      writer.check(reg.ok() && !reg.dedup);
      d::BatchReply batch;
      {
        auto span = tracer.span("client.batch_query", t);
        batch = client.batch_query(reg.fingerprint, batches[t]);
      }
      bool right = batch.ok() && batch.values.size() == batches[t].size();
      for (std::size_t i = 0; right && i < batches[t].size(); ++i) {
        right = batch.values[i] == expected_answer(ref, batches[t][i]);
      }
      writer.check(right);
      d::RaceReply races;
      {
        auto span = tracer.span("client.race_query", t);
        races = client.race_query(reg.fingerprint, 0);
      }
      std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> got;
      std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> want;
      for (const d::RaceInfo& r : races.races) {
        got.emplace_back(r.a, r.b, r.hidden_in_observed);
      }
      for (const evord::Race& r : ref.races.races) {
        want.emplace_back(r.a, r.b, r.hidden_in_observed);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      writer.check(races.ok() && !races.truncated &&
                   races.candidate_pairs == ref.races.candidate_pairs &&
                   got == want);
      d::BoolReply deadlock;
      {
        auto span = tracer.span("client.deadlock_query", t);
        deadlock = client.deadlock_query(reg.fingerprint);
      }
      writer.check(deadlock.ok() && deadlock.value == ref.deadlock.can_deadlock);
      writer.latency_ms.push_back(ms_since(t0));
      ++writer.completed;
    }
    writer.elapsed_s = ms_since(start) / 1e3;
    stop.store(true);
    reader_thread.join();
    // The reader's pairs count as attempted requests, but the primary
    // unit (latency, throughput) is the writer's trace.
    reader.reader_ms = std::move(reader.latency_ms);
    reader.latency_ms.clear();
    reader.started_ns.clear();
    reader.completed = 0;
    writer.absorb(reader);
    merged.absorb(tracer);
    merged.absorb(reader_tracer);
    note("cold_traces reader: " + describe_latency("pair", writer.reader_ms, 0.99, "us") +
         " pair_qps=" +
         std::to_string(static_cast<double>(writer.reader_ms.size()) / writer.elapsed_s) +
         " 1/s");
    return writer;
  };

  Result result;
  if (!c.trace) {
    Tracer off(false);
    Outcome o = phase("cold", pool.traces.size(), false, off);
    note("cold_traces: " + describe_latency("trace", o.latency_ms, 0.95, "ms") +
         " traces_per_s=" + std::to_string(o.completed / o.elapsed_s) + " 1/s");
    add_end_to_end(result, setup_s, o, whole_run(o, 0.95), daemon->peak_rss_mb());
  } else {
    Tracer off(false);
    Tracer tracer(true);
    // Both halves run the same traces, each in a tenant of its own, so
    // both start cold.
    const std::size_t half = (pool.traces.size() + 1) / 2;
    const Outcome a = phase("cold", half, false, off);
    setup(*daemon, "cold-traced");
    const Outcome b = phase("cold-traced", half, true, tracer);
    ReplayPlan plan;
    plan.traces = &pool.traces;
    plan.texts = &pool.texts;
    plan.num_traces = std::min<std::size_t>(16, pool.traces.size());
    plan.service = ReplayPlan::Service::kCold;
    plan.questions = questions_from_reference(pool, plan.num_traces, 4, c.seed);
    finish_traced(c, *daemon, readers, plan, a, b, tracer, result);
  }
  if (setup_check.failed != 0) {
    note("warm-up replies disagreed with the reference");
    result.failed += setup_check.failed;
  }
  return result;
}

// --------------------------------------------------------- anytime_large

Result anytime_large(const Config& c) {
  AnytimeInputs in = anytime_inputs(c.seed, 4, c.smoke);
  if (c.corrupt_reference) {
    auto& q = in.rounds[0][0];
    q.expected = q.expected == VerdictState::kProven ? VerdictState::kRefuted
                                                     : VerdictState::kProven;
  }
  double setup_s = 0.0;
  auto daemon = timed_setups(
      kSetups,
      [&](DaemonProcess& dp) {
        d::DaemonClient client(client_options(dp, "anytime", c.seed));
        client.health();
      },
      setup_s);

  // A round asks one question set on a fresh tenant, whose empty cache
  // makes every verdict and every ladder climb a cold one; rounds repeat
  // (cycling through the prepared sets) until `seconds` have passed.
  int rounds_done = 0;
  auto phase = [&](const std::string& tenant, double seconds, Tracer& tracer) {
    Outcome o;
    rounds_done = 0;
    const std::uint64_t start = now_ns();
    std::uint64_t request = 0;
    do {
      d::DaemonClient client(client_options(
          *daemon, tenant + "-" + std::to_string(rounds_done), c.seed));
      std::vector<std::uint64_t> fps;
      for (const std::string& text : in.texts) {
        const d::TraceReply reg = client.register_trace(text);
        o.check(reg.ok());
        fps.push_back(reg.fingerprint);
      }
      for (const AnytimeQuestion& q : in.rounds[rounds_done % in.rounds.size()]) {
        const std::uint64_t t0 = now_ns();
        d::VerdictReply v;
        {
          auto span = tracer.span("client.anytime_query", request++);
          v = client.anytime_query(fps[q.trace], q.which,
                                   static_cast<std::uint8_t>(q.semantics()), q.a,
                                   q.b);
        }
        o.latency_ms.push_back(ms_since(t0));
        ++o.completed;
        const bool settled = v.state != 0;
        o.check(v.ok() && v.state <= 2 &&
                    (!settled || v.state == static_cast<std::uint8_t>(q.expected)),
                settled);
      }
      ++rounds_done;
    } while (ms_since(start) < seconds * 1e3);
    o.elapsed_s = ms_since(start) / 1e3;
    return o;
  };

  Result result;
  if (!c.trace) {
    Tracer off(false);
    Outcome o = phase("anytime", c.seconds, off);
    std::ostringstream os;
    os << "anytime_large: " << describe_latency("anytime", o.latency_ms, 0.95, "ms")
       << " rounds=" << rounds_done
       << " questions/round=" << in.rounds[0].size();
    note(os.str());
    add_end_to_end(result, setup_s, o, whole_run(o, 0.95), daemon->peak_rss_mb());
  } else {
    Tracer off(false);
    Tracer tracer(true);
    const Outcome a = phase("anytime", c.seconds / 2, off);
    const Outcome b = phase("anytime-traced", c.seconds / 2, tracer);
    const TraceInputs probe = small_traces(c.seed, 1);
    ReplayPlan plan;
    plan.traces = &in.traces;
    plan.texts = &in.texts;
    plan.num_traces = in.traces.size();
    // The sweeps run under the default ladder's largest rung, as the
    // anytime path runs them.
    const evord::QueryBudget top = evord::AnytimeOptions::default_ladder().back();
    plan.sweep_options.max_states = top.max_states;
    plan.sweep_options.max_schedules = top.max_schedules;
    plan.sweep_options.max_memory_bytes = top.max_memory_bytes;
    plan.service = ReplayPlan::Service::kAnytime;
    plan.questions = in.rounds[0];
    finish_traced(c, *daemon, probe, plan, a, b, tracer, result);
  }
  return result;
}

}  // namespace

Result run_workload(const Config& config) {
  if (config.workload == "warm_pairs") return warm_pairs(config);
  if (config.workload == "cold_traces") return cold_traces(config);
  if (config.workload == "anytime_large") return anytime_large(config);
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace evbench
