#include "feasible/enumerate.hpp"

#include <memory>
#include <optional>

#include "search/engine.hpp"

namespace evord {

namespace {

/// Enumeration hooks: forward terminals to the caller's visitor; stuck
/// prefixes are only counted (by the engine).
struct EnumHooks {
  const ScheduleVisitor* visit;
  bool on_terminal(const std::vector<EventId>& schedule,
                   const search::NullTracker& /*tracker*/) {
    return (*visit)(schedule);
  }
  void on_stuck(const std::vector<EventId>& /*path*/, std::uint64_t /*fp*/,
                const std::vector<std::uint32_t>& /*dewey*/) {}
};

using EnumSearch =
    search::EnumerationSearch<search::NullTracker, search::NoDedup, EnumHooks>;

search::SearchOptions to_search_options(const EnumerateOptions& options) {
  search::SearchOptions so;
  so.max_terminals = options.max_schedules;
  so.time_budget_seconds = options.time_budget_seconds;
  so.max_memory_bytes = options.max_memory_bytes;
  so.steal = options.steal;
  if (options.representatives_only) {
    so.reduction = search::ReductionMode::kSourceWakeup;
  }
  return so;
}

EnumerateStats finish(const search::SearchStats& stats) {
  EnumerateStats out;
  out.schedules = stats.terminals;
  out.deadlocked_prefixes = stats.deadlocked_prefixes;
  out.truncated = stats.truncated;
  out.stopped_by_visitor = stats.stopped_by_visitor;
  out.search = stats;
  return out;
}

}  // namespace

EnumerateStats enumerate_schedules(const Trace& trace,
                                   const EnumerateOptions& options,
                                   const ScheduleVisitor& visit) {
  const search::SearchOptions so = to_search_options(options);
  search::SharedContext ctx(so);
  const search::ScopedAccountant charge_guard(options.charge_store,
                                              &ctx.memory);
  std::unique_ptr<search::IndependenceRelation> indep;
  if (so.reduction != search::ReductionMode::kOff) {
    indep = std::make_unique<search::IndependenceRelation>(trace);
  }
  EnumSearch engine(trace, options.stepper, so, &ctx, search::NullTracker{},
                    search::NoDedup{}, EnumHooks{&visit}, indep.get());
  engine.seed(options.seed_prefix);
  return finish(engine.run());
}

std::size_t num_enumerate_subtrees(const Trace& trace,
                                   const EnumerateOptions& options) {
  return search::root_events(trace, options.stepper, options.seed_prefix)
      .size();
}

EnumerateStats enumerate_schedules_parallel_indexed(
    const Trace& trace, const EnumerateOptions& options,
    const IndexedScheduleVisitor& visit, std::size_t num_threads) {
  // One initial task per first-level enabled event; the work-stealing
  // scheduler splits further subtrees off adaptively, so even a single
  // root child parallelises.  All budgets stay strict and global: the
  // tasks share one SharedContext, so max_schedules caps the combined
  // visit count exactly.
  const std::size_t threads = search::resolve_num_threads(num_threads);
  const search::SearchOptions so = to_search_options(options);
  std::unique_ptr<search::IndependenceRelation> indep;
  if (so.reduction != search::ReductionMode::kOff) {
    indep = std::make_unique<search::IndependenceRelation>(trace);
  }
  std::vector<search::SearchTask> roots = search::root_tasks(
      trace, options.stepper, options.seed_prefix, so, indep.get());
  if (threads <= 1 || roots.empty()) {
    // Serial fallback also covers empty traces and deadlocked roots.
    const ScheduleVisitor wrapped = [&](const std::vector<EventId>& s) {
      return visit(0, s);
    };
    return enumerate_schedules(trace, options, wrapped);
  }

  search::SharedContext ctx(so);
  const search::ScopedAccountant charge_guard(options.charge_store,
                                              &ctx.memory);
  const search::SearchStats total = search::run_work_stealing(
      std::move(roots), threads, so.steal.seed, ctx,
      [&](const search::SearchTask& task, search::WorkerHandle& worker) {
        const ScheduleVisitor sub =
            [&visit, slot = worker.worker_id()](const std::vector<EventId>& s) {
              return visit(slot, s);
            };
        EnumSearch engine(trace, options.stepper, so, &ctx,
                          search::NullTracker{}, search::NoDedup{},
                          EnumHooks{&sub}, indep.get());
        engine.seed(options.seed_prefix);
        engine.seed(task.seed);
        engine.attach_worker(&worker, &task);
        engine.set_initial_sleep(task.sleep);
        return engine.run();
      });
  return finish(total);
}

EnumerateStats enumerate_schedules_parallel(const Trace& trace,
                                            const EnumerateOptions& options,
                                            const ScheduleVisitor& visit,
                                            std::size_t num_threads) {
  return enumerate_schedules_parallel_indexed(
      trace, options,
      [&visit](std::size_t /*slot*/, const std::vector<EventId>& s) {
        return visit(s);
      },
      num_threads);
}

std::optional<std::vector<EventId>> find_schedule_where(
    const Trace& trace, const EnumerateOptions& options,
    const std::function<bool(const std::vector<EventId>&)>& pred) {
  std::optional<std::vector<EventId>> found;
  enumerate_schedules(trace, options, [&](const std::vector<EventId>& s) {
    if (pred(s)) {
      found = s;
      return false;
    }
    return true;
  });
  return found;
}

std::optional<std::vector<EventId>> find_schedule_with_order(
    const Trace& trace, EventId first, EventId second,
    const EnumerateOptions& options) {
  return find_schedule_where(
      trace, options, [&](const std::vector<EventId>& s) {
        for (EventId e : s) {
          if (e == first) return true;  // first came first
          if (e == second) return false;
        }
        return false;
      });
}

std::uint64_t count_schedules(const Trace& trace,
                              const EnumerateOptions& options) {
  return enumerate_schedules(trace, options,
                             [](const std::vector<EventId>&) { return true; })
      .schedules;
}

}  // namespace evord
