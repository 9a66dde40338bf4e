#include "ordering/exact.hpp"

#include <algorithm>
#include <vector>

#include "feasible/enumerate.hpp"
#include "feasible/schedule_space.hpp"
#include "feasible/stepper.hpp"
#include "ordering/causal.hpp"
#include "ordering/class_enumerate.hpp"
#include "search/engine.hpp"
#include "search/fingerprint_set.hpp"
#include "util/check.hpp"

namespace evord {

namespace {

OrderingRelations make_empty_result(const Trace& trace, Semantics semantics) {
  OrderingRelations r;
  r.semantics = semantics;
  r.num_events = trace.num_events();
  for (RelationMatrix& m : r.matrices) {
    m = RelationMatrix(trace.num_events());
  }
  return r;
}

/// When F is empty every universally quantified relation is vacuously
/// total and every existential one empty.
void fill_vacuous(OrderingRelations& r) {
  r.feasible_empty = true;
  for (RelationKind k : kAllRelationKinds) {
    if (is_must_relation(k)) {
      r[k].fill_off_diagonal();
    } else {
      r[k].clear();
    }
  }
}

OrderingRelations compute_interleaving(const Trace& trace,
                                       const ExactOptions& options) {
  OrderingRelations r = make_empty_result(trace, Semantics::kInterleaving);

  ScheduleSpaceOptions sso;
  sso.stepper.respect_dependences = options.respect_dependences;
  sso.max_states = options.max_states;
  sso.time_budget_seconds = options.time_budget_seconds;
  sso.max_memory_bytes = options.max_memory_bytes;
  sso.num_threads = options.num_threads;
  sso.steal = options.steal;
  sso.spill = options.spill;
  const CanPrecedeResult cp = compute_can_precede(trace, sso);

  r.truncated = cp.truncated;
  r.states_visited = cp.states_visited;
  r.search = cp.search;
  if (!cp.feasible_nonempty) {
    fill_vacuous(r);
    return r;
  }

  const std::size_t n = trace.num_events();
  // CHB(a, b) == can_precede[b] contains a: CHB is the transpose of the
  // sweep output, computed 64x64 bits at a time.
  RelationMatrix& chb = r[RelationKind::kCHB];
  const std::size_t wpr = (n + 63) / 64;
  std::uint64_t blk[64];
  for (std::size_t bi = 0; bi < wpr; ++bi) {
    for (std::size_t bj = 0; bj < wpr; ++bj) {
      bool any = false;
      for (int k = 0; k < 64; ++k) {
        const std::size_t a = bi * 64 + static_cast<std::size_t>(k);
        blk[k] = a < n ? cp.can_precede[a].word(bj) : 0;
        any = any || blk[k] != 0;
      }
      if (!any) continue;
      search::transpose64(blk);
      for (int k = 0; k < 64; ++k) {
        const std::size_t b = bj * 64 + static_cast<std::size_t>(k);
        if (b < n && blk[k] != 0) chb.row(b).word(bi) = blk[k];
      }
    }
  }
  // MHB(a, b) == every schedule runs a before b == no schedule runs b
  // before a (schedules are total orders), i.e. row a is the complement
  // of can_precede[a] minus the diagonal.
  RelationMatrix& mhb = r[RelationKind::kMHB];
  for (EventId a = 0; a < n; ++a) {
    DynamicBitset row(n);
    row.or_complement(cp.can_precede[a]);
    row.reset(a);
    mhb.row(a) = std::move(row);
  }
  // A total order never exhibits concurrency.
  r[RelationKind::kMCW].clear();
  r[RelationKind::kCCW].clear();
  r[RelationKind::kMOW].fill_off_diagonal();
  r[RelationKind::kCOW].fill_off_diagonal();
  return r;
}

/// Fingerprint seeds of the two class kinds sharing one dedup set: the
/// classes of the requested causal order and the synchronization-only
/// classes a fused sweep enumerates.
constexpr std::uint64_t kFullClassSeed = DynamicBitset::kHashSeed;
constexpr std::uint64_t kSyncClassSeed =
    DynamicBitset::kHashSeed ^ 0x5ca1ab1eull;

/// Records the class with ancestor rows `anc` in `dedup`; true iff it is
/// new.  Deduplicates on a chained 64-bit hash of the rows: O(1) space
/// per class instead of an n²/8-byte string.  Debug builds keep the rows
/// and verify hash-equal classes really are equal.
bool insert_class(const AncestorRows& anc, std::uint64_t seed,
                  search::ShardedFingerprintSet& dedup) {
  std::uint64_t fingerprint = seed;
  for (const DynamicBitset& row : anc) {
    fingerprint = row.hash_words(fingerprint);
  }
  const std::vector<std::uint64_t>* verify_payload = nullptr;
#ifndef NDEBUG
  std::vector<std::uint64_t> closure_words;
  if (dedup.verify_collisions()) {
    for (const DynamicBitset& row : anc) {
      for (std::size_t w = 0; w < row.word_count(); ++w) {
        closure_words.push_back(row.word(w));
      }
    }
    verify_payload = &closure_words;
  }
#endif
  return dedup.insert(fingerprint, verify_payload);
}

/// Per-causal-class accumulator for the causal and interval semantics.
/// In parallel mode each worker slot gets a private accumulator (visits
/// with the same slot never overlap); they all share one sharded
/// fingerprint set so every distinct class is accumulated by exactly one
/// of them, and merge() combines the results.
class CausalAccumulator {
 public:
  CausalAccumulator(std::size_t num_events,
                    search::ShardedFingerprintSet& dedup)
      : dedup_(&dedup), n_(num_events) {
    any_c_.reset(n_, n_);
    all_c_.reset(n_, n_);
    any_incomp_.reset(n_, n_);
    all_incomp_.reset(n_, n_);
    any_notrev_.reset(n_, n_);
    desc_.reset(n_, n_);
    scratch_words_.assign(any_c_.words_per_row(), 0);
    for (EventId a = 0; a < n_; ++a) {
      // all_* start full (AND identity) minus the diagonal.
      search::BitRow c = all_c_.row(a);
      c.set_all();
      c.reset(a);
      search::BitRow i = all_incomp_.row(a);
      i.set_all();
      i.reset(a);
    }
  }

  std::uint64_t classes() const { return classes_; }

  /// Accumulates the class with ancestor rows `anc` (anc[b] = { a : a ->
  /// b }) unless the dedup set already holds it.
  void accept(const AncestorRows& anc) {
    if (!insert_class(anc, kFullClassSeed, *dedup_)) return;
    ++classes_;

    // Row transpose, once per class: desc_[a] = { b : a -> b }, computed
    // 64x64 bits at a time.
    desc_.reset(n_, n_);
    const std::size_t wpr = desc_.words_per_row();
    std::uint64_t blk[64];
    for (std::size_t bi = 0; bi < wpr; ++bi) {
      for (std::size_t bj = 0; bj < wpr; ++bj) {
        bool any = false;
        for (int k = 0; k < 64; ++k) {
          const std::size_t b = bi * 64 + static_cast<std::size_t>(k);
          blk[k] = b < n_ ? anc[b].word(bj) : 0;
          any = any || blk[k] != 0;
        }
        if (!any) continue;
        search::transpose64(blk);
        for (int k = 0; k < 64; ++k) {
          const std::size_t a = bj * 64 + static_cast<std::size_t>(k);
          if (a < n_ && blk[k] != 0) desc_.row(a).word(bi) = blk[k];
        }
      }
    }
    // Word-parallel updates: not-reversed(a) = ~(anc(a) | {a}) and
    // incomparable(a) = ~(desc(a) | anc(a) | {a}).
    for (EventId a = 0; a < n_; ++a) {
      const search::ConstBitRow desc = desc_.row(a);
      any_c_.row(a) |= desc;
      all_c_.row(a) &= desc;
      search::BitRow scratch(scratch_words_.data(), n_);
      scratch.assign(search::row_view(anc[a]));
      scratch.set(a);
      any_notrev_.row(a).or_complement(scratch);
      scratch |= desc;
      any_incomp_.row(a).or_complement(scratch);
      all_incomp_.row(a).subtract(scratch);
    }
  }

  /// Associative cross-worker merge: any_* rows OR, all_* rows AND,
  /// class counts summed (the shared dedup set guarantees each class was
  /// accumulated by exactly one worker, so the sum is the distinct
  /// count).  A worker that saw no classes contributes identities.
  void merge(const CausalAccumulator& o) {
    classes_ += o.classes_;
    for (EventId a = 0; a < n_; ++a) {
      any_c_.row(a) |= o.any_c_.row(a);
      all_c_.row(a) &= o.all_c_.row(a);
      any_incomp_.row(a) |= o.any_incomp_.row(a);
      all_incomp_.row(a) &= o.all_incomp_.row(a);
      any_notrev_.row(a) |= o.any_notrev_.row(a);
    }
  }

  /// The CCW bit of each pair: incomparable in some class.
  DynamicBitset concurrent_pairs(
      const std::vector<DependenceEdge>& pairs) const {
    DynamicBitset bits(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (any_incomp_.row(pairs[i].first).test(pairs[i].second)) bits.set(i);
    }
    return bits;
  }

  /// Reads the accumulated matrices under r.semantics (kCausal or
  /// kInterval): the class enumeration is the same for both.
  void finish(OrderingRelations& r) const {
    const Semantics semantics = r.semantics;
    r.causal_classes = classes_;
    if (classes_ == 0) {
      fill_vacuous(r);
      return;
    }
    const std::size_t n = n_;
    DynamicBitset tmp(n);
    for (EventId a = 0; a < n; ++a) {
      all_c_.row(a).to_bitset(r[RelationKind::kMHB].row(a));
      any_incomp_.row(a).to_bitset(r[RelationKind::kCCW].row(a));
      if (semantics == Semantics::kInterval) {
        r[RelationKind::kMCW].row(a) = DynamicBitset(n);
      } else {
        all_incomp_.row(a).to_bitset(r[RelationKind::kMCW].row(a));
      }
      // MOW: never concurrent == comparable in every class.
      DynamicBitset mow(n, true);
      any_incomp_.row(a).to_bitset(tmp);
      mow.subtract(tmp);
      mow.reset(a);
      r[RelationKind::kMOW].row(a) = std::move(mow);
      if (semantics == Semantics::kInterval) {
        // Timing freedom: a could precede b iff some class does not force
        // b before a; any pair can be serialized, so COW is total.
        any_notrev_.row(a).to_bitset(r[RelationKind::kCHB].row(a));
        DynamicBitset cow(n, true);
        cow.reset(a);
        r[RelationKind::kCOW].row(a) = cow;
      } else {
        any_c_.row(a).to_bitset(r[RelationKind::kCHB].row(a));
        // COW: comparable in some class == not incomparable in every class.
        DynamicBitset cow(n, true);
        all_incomp_.row(a).to_bitset(tmp);
        cow.subtract(tmp);
        cow.reset(a);
        r[RelationKind::kCOW].row(a) = std::move(cow);
      }
    }
  }

 private:
  search::ShardedFingerprintSet* dedup_;
  std::size_t n_;
  std::uint64_t classes_ = 0;
  // One contiguous word arena per matrix (search::PerStateBitset): the
  // row kernels above stream cache-friendly 64-bit blocks instead of
  // hopping across n separately allocated bitsets.
  search::PerStateBitset any_c_, all_c_;
  search::PerStateBitset any_incomp_, all_incomp_;
  search::PerStateBitset any_notrev_;
  search::PerStateBitset desc_;  ///< per-class row transpose
  std::vector<std::uint64_t> scratch_words_;
};

/// The race reading of a sweep over the synchronization-only order: per
/// candidate pair, "incomparable in some synchronization class".  Like
/// CausalAccumulator it keeps one instance per worker slot over a shared
/// dedup set.  accept() reports whether the rows opened a new class:
/// the gate for the full-order accumulator, since with schedule-
/// invariant data edges the same synchronization class implies the same
/// full class.
class RaceAccumulator {
 public:
  RaceAccumulator(const std::vector<DependenceEdge>& pairs,
                  search::ShardedFingerprintSet& dedup)
      : pairs_(&pairs), dedup_(&dedup), racing_(pairs.size()) {}

  /// `sync` holds the synchronization-only ancestor rows.
  bool accept(const AncestorRows& sync) {
    if (!insert_class(sync, kSyncClassSeed, *dedup_)) return false;
    for (std::size_t i = 0; i < pairs_->size(); ++i) {
      const auto& [a, b] = (*pairs_)[i];
      if (!sync[b].test(a) && !sync[a].test(b)) racing_.set(i);
    }
    return true;
  }

  void merge(const RaceAccumulator& o) { racing_ |= o.racing_; }
  const DynamicBitset& racing() const { return racing_; }

 private:
  const std::vector<DependenceEdge>* pairs_;
  search::ShardedFingerprintSet* dedup_;
  DynamicBitset racing_;
};

/// The full causal order of a fused sweep's schedule from its
/// synchronization-only rows.  With schedule-invariant data edges C(σ) =
/// closure(C_sync(σ) ∪ D), and every D edge runs forward in σ, so one
/// pass in schedule order closes it with word-parallel ORs:
///   full[e] = sync[e] ∪ ⋃_{x ∈ sync[e]} full[x]
///                     ∪ ⋃_{d ∈ Dpred(e)} ({d} ∪ full[d]).
/// One instance per worker slot: the rows are its scratch.
class FullRowBuilder {
 public:
  explicit FullRowBuilder(const Trace& trace)
      : dpred_(trace.num_events()),
        full_(trace.num_events(), DynamicBitset(trace.num_events())) {
    for (const auto& [x, y] : trace.dependences()) dpred_[y].push_back(x);
  }

  /// Valid until the next call.
  const AncestorRows& build(const std::vector<EventId>& schedule,
                            const AncestorRows& sync) {
    const std::size_t n = full_.size();
    for (const EventId e : schedule) {
      DynamicBitset& row = full_[e];
      row = sync[e];
      for (std::size_t x = sync[e].find_first(); x < n;
           x = sync[e].find_next(x)) {
        row |= full_[x];
      }
      for (const EventId d : dpred_[e]) {
        row.set(d);
        row |= full_[d];
      }
    }
    return full_;
  }

 private:
  std::vector<std::vector<EventId>> dpred_;  ///< d ∈ dpred_[e] iff (d, e) ∈ D
  AncestorRows full_;
};

/// Ancestor rows of a replayed closure (the class_dedup = false
/// reference path): the transpose of its descendant rows.
AncestorRows replayed_rows(const Trace& trace,
                           const std::vector<EventId>& schedule,
                           const CausalOptions& options) {
  const TransitiveClosure tc = causal_closure(trace, schedule, options);
  const std::size_t n = trace.num_events();
  AncestorRows anc(n, DynamicBitset(n));
  for (EventId a = 0; a < n; ++a) {
    const DynamicBitset& desc = tc.descendants(a);
    for (std::size_t b = desc.find_first(); b < n; b = desc.find_next(b)) {
      anc[b].set(a);
    }
  }
  return anc;
}

/// The data edges of C(sigma) are the same in every feasible schedule:
/// F3 is enforced and every conflicting pair is a D edge in one
/// direction or the other.
bool data_edges_schedule_invariant(const Trace& trace,
                                   const ExactOptions& options,
                                   const std::vector<DependenceEdge>& pairs) {
  const std::vector<DependenceEdge>& deps = trace.dependences();
  return options.respect_dependences &&
         std::all_of(pairs.begin(), pairs.end(), [&](const DependenceEdge& p) {
           return std::binary_search(deps.begin(), deps.end(), p) ||
                  std::binary_search(deps.begin(), deps.end(),
                                     DependenceEdge{p.second, p.first});
         });
}

}  // namespace

bool class_sweep_carries_races(const Trace& trace,
                               const ExactOptions& options) {
  return !options.causal_data_edges ||
         data_edges_schedule_invariant(trace, options,
                                       trace.conflicting_pairs());
}

CausalIntervalRelations compute_causal_and_interval(
    const Trace& trace, const ExactOptions& options) {
  // The sweep-level fields (truncated, schedules_seen,
  // deadlocked_prefixes, search) are filled once here and shared by
  // both results; only the per-semantics readings of the accumulated
  // matrices differ (CausalAccumulator::finish).
  OrderingRelations r = make_empty_result(trace, Semantics::kCausal);
  const std::vector<DependenceEdge> pairs = trace.conflicting_pairs();
  // Fused: enumerate the synchronization-only classes, read the race
  // bits off every one of them and the full closure off each new one.
  const bool fused = options.causal_data_edges &&
                     data_edges_schedule_invariant(trace, options, pairs);
  const CausalOptions causal{.include_data_edges =
                                 options.causal_data_edges};
  const std::size_t num_threads =
      search::resolve_num_threads(options.num_threads);
  // One dedup set for both class kinds (distinct fingerprint seeds), so
  // the byte budget charges both.  A serial sweep touches it from one
  // thread: one unlocked shard.
  search::PackedStateRegistry::Config dedup_config;
  if (num_threads <= 1) {
    dedup_config.num_shards = 1;
    dedup_config.synchronized = false;
  }
  search::ShardedFingerprintSet dedup(dedup_config);
  // One accumulator set per worker slot (lock-free accepts: same-slot
  // visits never overlap), class dedup shared through the sharded set,
  // all budgets strict and global via the shared search context.
  std::vector<CausalAccumulator> accs;
  std::vector<RaceAccumulator> race_accs;
  std::vector<FullRowBuilder> full_rows;
  accs.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    accs.emplace_back(trace.num_events(), dedup);
    if (fused) {
      race_accs.emplace_back(pairs, dedup);
      full_rows.emplace_back(trace);
    }
  }
  // The class sweep hands over the rows of the order it enumerated: the
  // requested one, or the synchronization-only one when fused.
  const auto accept_slot = [&](std::size_t slot,
                               const std::vector<EventId>& s,
                               const AncestorRows& rows) {
    if (!fused) {
      accs[slot].accept(rows);
    } else if (race_accs[slot].accept(rows)) {
      accs[slot].accept(full_rows[slot].build(s, rows));
    }
    return true;
  };
  // The plain enumerator is the independent reference: it replays every
  // schedule's orders and feeds the replayed rows to the same accepts.
  const auto replay_slot = [&](std::size_t slot,
                               const std::vector<EventId>& s) {
    if (fused && !race_accs[slot].accept(replayed_rows(
                     trace, s, {.include_data_edges = false}))) {
      return true;
    }
    accs[slot].accept(replayed_rows(trace, s, causal));
    return true;
  };

  if (options.class_dedup) {
    ClassEnumOptions co;
    co.stepper.respect_dependences = options.respect_dependences;
    co.causal.include_data_edges = causal.include_data_edges && !fused;
    co.max_schedules = options.max_schedules;
    co.time_budget_seconds = options.time_budget_seconds;
    co.max_memory_bytes = options.max_memory_bytes;
    co.steal = options.steal;
    co.spill = options.spill;
    // The class-dedup set lives here but grows inside the enumeration:
    // charge it against the same byte budget as the prefix store.
    co.charge_store = &dedup;
    co.reduction = options.reduction;
    const ClassEnumStats stats =
        num_threads <= 1
            ? enumerate_causal_classes(
                  trace, co,
                  [&](const std::vector<EventId>& s, const AncestorRows& rows) {
                    return accept_slot(0, s, rows);
                  })
            : enumerate_causal_classes_parallel(trace, co, num_threads,
                                                accept_slot);
    r.schedules_seen = stats.schedules_visited;
    r.deadlocked_prefixes = stats.deadlocked_prefixes;
    r.truncated = stats.truncated || stats.stopped_by_visitor;
    r.search = stats.search;
  } else {
    EnumerateOptions eo;
    eo.stepper.respect_dependences = options.respect_dependences;
    eo.max_schedules = options.max_schedules;
    eo.time_budget_seconds = options.time_budget_seconds;
    eo.max_memory_bytes = options.max_memory_bytes;
    eo.steal = options.steal;
    eo.charge_store = &dedup;
    const EnumerateStats stats =
        num_threads <= 1
            ? enumerate_schedules(trace, eo,
                                  [&](const std::vector<EventId>& s) {
                                    return replay_slot(0, s);
                                  })
            : enumerate_schedules_parallel_indexed(trace, eo, replay_slot,
                                                   num_threads);
    r.schedules_seen = stats.schedules;
    r.deadlocked_prefixes = stats.deadlocked_prefixes;
    r.truncated = stats.truncated;
    r.search = stats.search;
    if (num_threads > 1 && r.search.shard_sizes.empty()) {
      r.search.shard_sizes = dedup.shard_sizes();
    }
  }
  // The shared stores are authoritative for memo bytes: prefix-set bytes
  // arrive via stats.search (set once from the set itself), and the
  // class-dedup set is added here exactly once — never summed per worker.
  r.search.memo_bytes += dedup.bytes();
  for (std::size_t i = 1; i < accs.size(); ++i) accs[0].merge(accs[i]);
  for (std::size_t i = 1; i < race_accs.size(); ++i) {
    race_accs[0].merge(race_accs[i]);
  }

  CausalIntervalRelations out{r, std::move(r), std::nullopt};
  out.interval.semantics = Semantics::kInterval;
  accs[0].finish(out.causal);
  accs[0].finish(out.interval);
  if (fused) {
    out.races = race_accs[0].racing();
  } else if (!options.causal_data_edges) {
    // The causal member already is race semantics.
    out.races = accs[0].concurrent_pairs(pairs);
  }
  return out;
}

const OrderingRelations& CausalIntervalRelations::of(
    Semantics semantics) const {
  EVORD_CHECK(semantics != Semantics::kInterleaving,
              "interleaving relations come from their own sweep");
  return semantics == Semantics::kCausal ? causal : interval;
}

OrderingRelations compute_exact(const Trace& trace, Semantics semantics,
                                const ExactOptions& options) {
  switch (semantics) {
    case Semantics::kInterleaving:
      return compute_interleaving(trace, options);
    case Semantics::kCausal:
      return compute_causal_and_interval(trace, options).causal;
    case Semantics::kInterval:
      return compute_causal_and_interval(trace, options).interval;
  }
  EVORD_CHECK(false, "unknown semantics");
}

bool must_have_happened_before(const Trace& trace, EventId a, EventId b,
                               Semantics semantics,
                               const ExactOptions& options) {
  return compute_exact(trace, semantics, options)
      .holds(RelationKind::kMHB, a, b);
}

bool could_have_happened_before(const Trace& trace, EventId a, EventId b,
                                Semantics semantics,
                                const ExactOptions& options) {
  return compute_exact(trace, semantics, options)
      .holds(RelationKind::kCHB, a, b);
}

bool could_have_been_concurrent(const Trace& trace, EventId a, EventId b,
                                const ExactOptions& options) {
  return compute_exact(trace, Semantics::kCausal, options)
      .holds(RelationKind::kCCW, a, b);
}

}  // namespace evord
