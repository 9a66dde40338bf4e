// The program-execution model P = <E, T, D> (paper §2).
//
// A `Trace` is an immutable observed execution of a shared-memory parallel
// program on a sequentially consistent machine:
//   * E — the event set, grouped into per-process program orders, with a
//     fork/join process tree;
//   * T — the observed temporal order, represented by the observed total
//     order (schedule) in which the events completed;
//   * D — the shared-data-dependence relation, either derived from the
//     events' read/write sets under the observed order, or supplied
//     explicitly.
//
// Traces are constructed with `TraceBuilder` (or parsed from the text
// format in trace_io.hpp) and validated against the model axioms by
// `validate_axioms`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "trace/event.hpp"
#include "trace/ids.hpp"

namespace evord {

struct SemaphoreInfo {
  std::string name;
  int initial = 0;      ///< initial count (>= 0)
  bool binary = false;  ///< binary semaphores clamp the count at 1
};

struct EventVarInfo {
  std::string name;
  bool initially_posted = false;
};

struct ProcessInfo {
  ProcId parent = kNoProc;           ///< kNoProc for the root process
  EventId creating_fork = kNoEvent;  ///< the parent's fork event
  std::vector<EventId> events;       ///< program order within the process
};

/// An edge (a, b) of the shared-data-dependence relation D: event a
/// accesses a shared variable that b later accesses, at least one of the
/// two accesses being a write.
using DependenceEdge = std::pair<EventId, EventId>;

class TraceBuilder;

class Trace {
 public:
  Trace() = default;

  // ----- E: events and processes ------------------------------------
  std::size_t num_events() const { return events_.size(); }
  const Event& event(EventId e) const { return events_[e]; }
  const std::vector<Event>& events() const { return events_; }

  std::size_t num_processes() const { return processes_.size(); }
  const ProcessInfo& process(ProcId p) const { return processes_[p]; }
  std::span<const EventId> program_order(ProcId p) const {
    return {processes_[p].events.data(), processes_[p].events.size()};
  }

  // ----- synchronization objects and shared variables ---------------
  const std::vector<SemaphoreInfo>& semaphores() const { return semaphores_; }
  const std::vector<EventVarInfo>& event_vars() const { return event_vars_; }
  const std::vector<std::string>& variables() const { return variables_; }

  /// Name lookups; return kNoObject / kNoVar when absent.
  ObjectId find_semaphore(std::string_view name) const;
  ObjectId find_event_var(std::string_view name) const;
  VarId find_variable(std::string_view name) const;
  /// Label lookup; returns kNoEvent when absent or ambiguous.
  EventId find_event_by_label(std::string_view label) const;

  // ----- T: the observed temporal order ------------------------------
  /// The observed completion order of all events.  Every trace built by
  /// TraceBuilder has one (it is the build order).
  const std::vector<EventId>& observed_order() const {
    return observed_order_;
  }
  /// Position of event `e` in the observed order.
  std::size_t observed_position(EventId e) const {
    return observed_pos_[e];
  }

  // ----- D: shared-data dependences ----------------------------------
  /// Sorted and duplicate-free (TraceBuilder::build), so membership is a
  /// binary search.
  const std::vector<DependenceEdge>& dependences() const {
    return dependences_;
  }

  // ----- identity ------------------------------------------------------
  /// Order-sensitive 64-bit content fingerprint over every semantics-
  /// relevant field of the model P = <E, T, D>: per-event (process,
  /// position, kind, object, read/write sets), the process tree
  /// (parent, creating fork), synchronization-object initial states,
  /// the observed total order and the dependence edges.  Presentation
  /// fields — event labels, semaphore / event-variable / shared-variable
  /// NAMES — are deliberately excluded: two traces that differ only in
  /// naming have identical feasible executions and identical analysis
  /// results, so the service layer (src/service/) dedups them to one
  /// registry entry.  Computed on demand in O(|E| + |D|); callers that
  /// need it repeatedly (TraceRegistry, AnalysisSession) store it.
  std::uint64_t fingerprint() const;

  // ----- derived graphs ----------------------------------------------
  /// Program-order + fork/join edges: successive events of one process,
  /// fork event -> first event of child, last event of child -> join.
  /// These orderings hold in *every* feasible execution.
  Digraph static_order_graph() const;

  /// static_order_graph() plus one edge per dependence in D.
  Digraph constraint_graph() const;

  /// Events of a given kind, in id order.
  std::vector<EventId> events_of_kind(EventKind kind) const;

  /// All unordered pairs of conflicting computation events (candidate data
  /// races before ordering analysis).
  std::vector<DependenceEdge> conflicting_pairs() const;

 private:
  friend class TraceBuilder;

  std::vector<Event> events_;
  std::vector<ProcessInfo> processes_;
  std::vector<SemaphoreInfo> semaphores_;
  std::vector<EventVarInfo> event_vars_;
  std::vector<std::string> variables_;
  std::vector<EventId> observed_order_;
  std::vector<std::size_t> observed_pos_;
  std::vector<DependenceEdge> dependences_;
};

}  // namespace evord
