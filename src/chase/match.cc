#include "chase/match.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "datalog/atom.h"

namespace triq::chase {

using datalog::Atom;
using datalog::Rule;

namespace {

/// kAuto engages the merge path only when the driver window has at
/// least this many tuples; below it, sorting the window costs more than
/// the probes it saves.
constexpr size_t kAutoMergeMinWindow = 32;

/// First entry in [from, end) that is >= target, over an ascending
/// tuple-index list: gallops forward from `from`, then binary-searches
/// the bracket, so a monotone sequence of seeks costs O(log gap) each.
const uint32_t* GallopTo(const uint32_t* from, const uint32_t* end,
                         uint32_t target) {
  const size_t n = static_cast<size_t>(end - from);
  size_t lo = 0;
  size_t step = 1;
  while (lo + step < n && from[lo + step] < target) {
    lo += step;
    step *= 2;
  }
  return std::lower_bound(from + lo, from + std::min(lo + step, n), target);
}

/// How a join step reads its atom's relation (see JoinPlan).
enum class Access : uint8_t {
  kScan,         // the whole window, ascending tuple index
  kSortedScan,   // depth 0: the window in value order of column `pos`
  kPostings,     // the bound positions' posting lists, intersected
  kFindIndex,    // every position bound: one dedup-table lookup
  kMergeCursor,  // depth 1: a galloping cursor over column `pos`
  kLeapfrog,     // below the driver: one leapfrog triejoin per binding
};

/// One join step: the atom enumerated at this depth, its relation (null
/// when absent or of another arity: no candidates), its window clamped
/// to the relation, and its access path.
struct Step {
  int slot = -1;  // positive-atom index (= body order of the refs)
  const Atom* atom = nullptr;
  const Relation* rel = nullptr;
  size_t begin = 0;
  size_t end = 0;
  Access access = Access::kScan;
  uint32_t pos = 0;  // the kSortedScan / kMergeCursor column
};

}  // namespace

/// The plan proper. The join order and every access path depend only on
/// *which* variables are bound at each depth plus per-relation
/// statistics — never on bound values — so one plan serves every branch
/// of the search and every shard. The delta atom is pinned first (its
/// window drives the pass); under kAuto each later depth takes the atom
/// with the smallest estimated match count given the variables bound so
/// far, while kBinary keeps the written order. On top of the order the
/// planner picks access paths (see JoinStrategy): a leapfrog-triejoin
/// residual when kAuto calls for it, else a depth-1 merge cursor when
/// the first two atoms share a variable, with posting probes —
/// binary-searched Equal() ranges, intersecting the two shortest — or a
/// dedup-table lookup everywhere else.
struct JoinPlan::Impl {
  /// One trie level of a leapfrog atom: the column position it walks,
  /// the atom argument at that position (a constant or a variable), the
  /// leapfrog variable index that owns the level (-1 = restricted), and
  /// the column base pointer (storage never moves during a pass).
  struct LfLevel {
    uint32_t pos;
    Term pattern;
    int var;
    const Term* col;
  };
  /// One residual atom of the leapfrog plan (the step at depth
  /// index + 1): its trie key (level positions) and the lex permutation
  /// it walks.
  struct LfAtom {
    std::vector<uint32_t> key;
    std::vector<LfLevel> levels;
    size_t num_restricted = 0;
    bool fully_restricted = false;
    const std::vector<uint32_t>* perm = nullptr;
  };
  /// One occurrence group: `atom`'s levels [level_begin, level_end) all
  /// carry the same leapfrog variable.
  struct LfOcc {
    int atom = 0;
    uint32_t level_begin = 0;
    uint32_t level_end = 0;
  };
  struct LfVar {
    Term var;
    std::vector<LfOcc> occs;
  };

  Impl(const Rule& rule, const Instance& instance,
       const MatchOptions& options);

  /// Whether `t` is a constant or a variable bound before the atom at
  /// `depth` is enumerated (seed variables, then every variable of the
  /// atoms at shallower depths).
  bool BoundAt(size_t depth, Term t) const {
    if (!t.IsVariable()) return true;
    auto end = bind_order.begin() + bound_before[depth];
    return std::find(bind_order.begin(), end, t) != end;
  }

  uint32_t DriverTuple(size_t i) const {
    return driver_order.empty() ? static_cast<uint32_t>(driver_first + i)
                                : driver_order[i];
  }

  void OrderSteps(const std::vector<Step>& by_slot);
  int PickNextAtom(const std::vector<Step>& by_slot,
                   const std::vector<bool>& used, size_t depth) const;
  void PlanMerge();
  bool ShouldLeapfrog() const;
  void PlanLeapfrog();
  void SettleDriver();

  const Instance& instance;
  const Binding seed;
  const bool seeded;
  const JoinStrategy strategy;
  const std::chrono::steady_clock::time_point deadline;
  const int delta_body_index;
  std::vector<int> positive;  // body indices of positive atoms
  std::vector<const Atom*> negative;
  std::vector<Step> steps;            // depth -> step
  std::vector<Term> bind_order;       // variables in plan binding order
  std::vector<size_t> bound_before;   // depth -> bound prefix of bind_order

  /// Some positive atom has an empty window or an absent relation, so
  /// the conjunction cannot match: the plan keeps its order and access
  /// paths (EXPLAIN reads them) but builds no index, and its depth-0
  /// visit order is empty.
  bool empty = false;

  /// The depth-0 visit order: driver_order when materialized (sorted
  /// scan, postings, find-index), else the tuple indices
  /// [driver_first, driver_first + driver_size). Unsettled (read per
  /// run) only for a seeded plan that probes its first atom.
  bool settled = true;
  std::vector<uint32_t> driver_order;
  size_t driver_first = 0;
  size_t driver_size = 0;
  SortedRange cursor_range;  // the merge cursor's sorted permutation

  bool leapfrog = false;     // the residual runs as a leapfrog triejoin
  std::vector<LfAtom> lf_atoms;  // depth d >= 1 -> lf_atoms[d - 1]
  std::vector<LfVar> lf_vars;
};

namespace {

/// Estimated number of matching tuples for `step`'s atom per
/// intermediate binding, given which variables are bound: its window
/// size divided by the estimated distinct count of every bound position
/// (the Trident/RDF-3X selectivity-from-index-statistics model, read off
/// the O(1) per-position sketches so estimating never syncs an index).
/// Value-independent, hence identical across strategies and thread
/// counts. A fully bound atom caps at one row — it resolves through the
/// dedup table. Also reports the bound-position count and window size
/// for the deterministic tie-breaks.
template <typename BoundFn>
double EstimateAtom(const Step& step, const BoundFn& is_bound,
                    size_t* bound_out, size_t* size_out) {
  const size_t size = step.end > step.begin ? step.end - step.begin : 0;
  double est = static_cast<double>(size);
  size_t num_bound = 0;
  for (uint32_t pos = 0; pos < step.atom->args.size(); ++pos) {
    if (!is_bound(step.atom->args[pos])) continue;
    ++num_bound;
    if (size > 0) est /= std::max(1.0, step.rel->EstimatedDistinct(pos));
  }
  if (num_bound == step.atom->args.size() && !step.atom->args.empty()) {
    est = std::min(est, 1.0);
  }
  *bound_out = num_bound;
  *size_out = size;
  return est;
}

/// Calls `fn` on every candidate tuple index of a kPostings or
/// kFindIndex step under `binding`, in ascending order; false iff `fn`
/// stopped early. The dedup table answers a fully bound atom in O(1);
/// otherwise the candidates are the intersection of the two shortest
/// posting lists of the bound positions. Only indices below the window
/// end are read, so a permutation synced past the window is used as is.
template <typename Fn>
bool ForEachCandidate(const Step& step, const Binding& binding,
                      Tuple* scratch, const Fn& fn) {
  const std::vector<Term>& args = step.atom->args;
  if (step.access == Access::kFindIndex) {
    scratch->clear();
    for (Term arg : args) scratch->push_back(binding.Apply(arg));
    uint32_t idx = step.rel->FindIndex(*scratch);
    if (idx == Relation::kNotFound || idx < step.begin || idx >= step.end) {
      return true;
    }
    return fn(idx);
  }
  SortedRange shortest, second;
  bool have_shortest = false, have_second = false;
  for (uint32_t pos = 0; pos < args.size(); ++pos) {
    Term val = binding.Apply(args[pos]);
    if (val.IsVariable()) continue;
    SortedRange p = step.rel->Postings(pos, val, step.end);
    if (p.empty()) return true;  // some bound position has no fact
    if (!have_shortest || p.size() < shortest.size()) {
      if (have_shortest) {
        second = shortest;
        have_second = true;
      }
      shortest = p;
      have_shortest = true;
    } else if (!have_second || p.size() < second.size()) {
      second = p;
      have_second = true;
    }
  }
  // Posting entries ascend by tuple index, so the window seek is a
  // binary search instead of a skip-scan.
  const uint32_t* it = std::lower_bound(shortest.begin(), shortest.end(),
                                        static_cast<uint32_t>(step.begin));
  if (!have_second) {
    for (; it != shortest.end() && *it < step.end; ++it) {
      if (!fn(*it)) return false;
    }
    return true;
  }
  // Walk the shorter list and gallop the longer one to each of its
  // entries: O(|shortest| log gap) instead of a linear walk of the long
  // list.
  const uint32_t* jt = second.begin();
  for (; it != shortest.end() && *it < step.end; ++it) {
    jt = GallopTo(jt, second.end(), *it);
    if (jt == second.end()) break;
    if (*jt != *it) continue;
    if (!fn(*it)) return false;
    ++jt;
  }
  return true;
}

}  // namespace

JoinPlan::Impl::Impl(const Rule& rule, const Instance& inst,
                     const MatchOptions& options)
    : instance(inst),
      seed(options.seed != nullptr ? *options.seed : Binding()),
      seeded(options.seed != nullptr),
      strategy(options.join_strategy),
      deadline(options.deadline),
      delta_body_index(options.delta_body_index) {
  std::vector<Step> by_slot;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Atom& atom = rule.body[i];
    if (atom.negated) {
      negative.push_back(&atom);
      continue;
    }
    Step step;
    step.slot = static_cast<int>(positive.size());
    step.atom = &atom;
    const Relation* rel = instance.Find(atom.predicate);
    if (rel != nullptr && rel->arity() == atom.args.size()) {
      // The window contract of MatchOptions.
      size_t end = kNoTupleLimit;
      if (static_cast<int>(i) == options.delta_body_index) {
        step.begin = options.delta_begin;
        end = options.delta_end;
      } else if (i < options.atom_end.size()) {
        end = options.atom_end[i];
      }
      step.rel = rel;
      step.end = std::min(end, rel->size());
    }
    if (step.rel == nullptr || step.begin >= step.end) empty = true;
    positive.push_back(static_cast<int>(i));
    by_slot.push_back(step);
  }
  OrderSteps(by_slot);
  for (size_t depth = 0; depth < steps.size(); ++depth) {
    Step& step = steps[depth];
    size_t num_bound = 0;
    for (Term t : step.atom->args) num_bound += BoundAt(depth, t) ? 1 : 0;
    if (num_bound == step.atom->args.size() && num_bound > 0) {
      step.access = Access::kFindIndex;
    } else if (num_bound > 0) {
      step.access = Access::kPostings;
    }
  }
  if (ShouldLeapfrog()) {
    PlanLeapfrog();
  } else {
    PlanMerge();
  }
  SettleDriver();
}

/// Computes the join order and records which variables each depth sees
/// bound.
void JoinPlan::Impl::OrderSteps(const std::vector<Step>& by_slot) {
  bound_before.assign(by_slot.size() + 1, 0);
  std::vector<bool> used(by_slot.size(), false);
  for (const auto& [var, val] : seed.entries()) bind_order.push_back(var);
  for (size_t depth = 0; depth < by_slot.size(); ++depth) {
    bound_before[depth] = bind_order.size();
    int slot = PickNextAtom(by_slot, used, depth);
    used[slot] = true;
    steps.push_back(by_slot[slot]);
    for (Term t : steps.back().atom->args) {
      if (t.IsVariable() && std::find(bind_order.begin(), bind_order.end(),
                                      t) == bind_order.end()) {
        bind_order.push_back(t);
      }
    }
  }
  bound_before[by_slot.size()] = bind_order.size();
}

// The delta atom is pinned first (its window is the pass's driver).
// kBinary then takes the atoms in written order; kAuto orders by cost:
// each depth takes the unprocessed atom with the smallest estimated
// match count under the variables bound so far. Ties break
// deterministically: more bound positions, then smaller window, then
// lower slot index — never a value or an address.
int JoinPlan::Impl::PickNextAtom(const std::vector<Step>& by_slot,
                                 const std::vector<bool>& used,
                                 size_t depth) const {
  for (size_t i = 0; i < by_slot.size(); ++i) {
    if (!used[i] && positive[i] == delta_body_index) {
      return static_cast<int>(i);
    }
  }
  if (strategy == JoinStrategy::kBinary) {
    for (size_t i = 0; i < by_slot.size(); ++i) {
      if (!used[i]) return static_cast<int>(i);
    }
  }
  auto is_bound = [&](Term t) { return BoundAt(depth, t); };
  int best = -1;
  double best_est = 0.0;
  size_t best_bound = 0;
  size_t best_size = 0;
  for (size_t i = 0; i < by_slot.size(); ++i) {
    if (used[i]) continue;
    size_t num_bound = 0;
    size_t size = 0;
    double est = EstimateAtom(by_slot[i], is_bound, &num_bound, &size);
    bool better = best == -1 || est < best_est ||
                  (est == best_est &&
                   (num_bound > best_bound ||
                    (num_bound == best_bound && size < best_size)));
    if (better) {
      best = static_cast<int>(i);
      best_est = est;
      best_bound = num_bound;
      best_size = size;
    }
  }
  return best;
}

/// The depth-1 merge join: the driver must full-scan its window (a
/// bound argument would enumerate in posting order) and the second atom
/// must share one of the driver's variables, bound at its first
/// occurrence in the driver so its bind order follows the sorted column.
/// kAuto also requires a window that amortizes sorting it, and both need
/// a non-empty cursor relation.
void JoinPlan::Impl::PlanMerge() {
  if (steps.size() < 2 || steps[0].access != Access::kScan) return;
  Step& driver = steps[0];
  Step& next = steps[1];
  const size_t window =
      driver.end > driver.begin ? driver.end - driver.begin : 0;
  if (strategy == JoinStrategy::kAuto && window < kAutoMergeMinWindow) return;
  if (next.rel == nullptr || next.rel->size() == 0) return;
  const std::vector<Term>& a0 = driver.atom->args;
  for (uint32_t p = 0; p < a0.size(); ++p) {
    if (std::find(a0.begin(), a0.begin() + p, a0[p]) != a0.begin() + p) {
      continue;  // not the variable's first occurrence
    }
    for (uint32_t q = 0; q < next.atom->args.size(); ++q) {
      if (next.atom->args[q] != a0[p]) continue;
      driver.access = Access::kSortedScan;
      driver.pos = p;
      next.access = Access::kMergeCursor;
      next.pos = q;
      return;
    }
  }
}

/// Whether the plan runs the residual (every atom below the driver)
/// as one leapfrog triejoin: kAuto only, with ≥3 positive atoms and
/// ≥2 residual atoms sharing a variable the driver leaves unbound —
/// the shape where a binary plan materializes an intermediate result
/// the multi-way intersection never builds. Value-independent.
bool JoinPlan::Impl::ShouldLeapfrog() const {
  if (strategy != JoinStrategy::kAuto || steps.size() < 3) return false;
  for (size_t d1 = 1; d1 < steps.size(); ++d1) {
    for (Term v : steps[d1].atom->args) {
      if (BoundAt(1, v)) continue;
      for (size_t d2 = d1 + 1; d2 < steps.size(); ++d2) {
        const std::vector<Term>& args = steps[d2].atom->args;
        if (std::find(args.begin(), args.end(), v) != args.end()) return true;
      }
    }
  }
  return false;
}

/// Builds the leapfrog residual plan: per residual atom a trie key —
/// restricted positions (constants and variables the seed or driver
/// binds) in ascending position order, then each leapfrog variable's
/// occurrence positions as one contiguous level group — and per
/// variable its participant list. Variables are ordered by first
/// unbound occurrence across the residual in join order. The lex
/// permutations are built here, on the planning thread, unless the
/// plan is empty.
void JoinPlan::Impl::PlanLeapfrog() {
  leapfrog = true;
  auto is_bound = [&](Term t) { return BoundAt(1, t); };
  std::vector<Term> order;  // leapfrog variables, first occurrence
  for (size_t depth = 1; depth < steps.size(); ++depth) {
    for (Term t : steps[depth].atom->args) {
      if (!is_bound(t) &&
          std::find(order.begin(), order.end(), t) == order.end()) {
        order.push_back(t);
      }
    }
  }
  lf_vars.resize(order.size());
  for (size_t vi = 0; vi < order.size(); ++vi) lf_vars[vi].var = order[vi];

  for (size_t depth = 1; depth < steps.size(); ++depth) {
    Step& step = steps[depth];
    const Atom& atom = *step.atom;
    LfAtom a;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      if (is_bound(atom.args[pos])) {
        a.levels.push_back(LfLevel{pos, atom.args[pos], -1, nullptr});
      }
    }
    a.num_restricted = a.levels.size();
    int atom_index = static_cast<int>(lf_atoms.size());
    for (size_t vi = 0; vi < order.size(); ++vi) {
      LfOcc occ;
      occ.atom = atom_index;
      bool found = false;
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        if (atom.args[pos] != order[vi]) continue;
        if (!found) {
          occ.level_begin = static_cast<uint32_t>(a.levels.size());
          found = true;
        }
        a.levels.push_back(
            LfLevel{pos, atom.args[pos], static_cast<int>(vi), nullptr});
      }
      if (found) {
        occ.level_end = static_cast<uint32_t>(a.levels.size());
        lf_vars[vi].occs.push_back(occ);
      }
    }
    a.fully_restricted = a.num_restricted == a.levels.size();
    step.access = a.fully_restricted ? Access::kFindIndex : Access::kLeapfrog;
    for (const LfLevel& level : a.levels) a.key.push_back(level.pos);
    if (!empty && !a.fully_restricted) {
      a.perm = &step.rel->LexPerm(a.key);
      for (LfLevel& level : a.levels) {
        level.col = step.rel->Column(level.pos).begin();
      }
    }
    lf_atoms.push_back(std::move(a));
  }
}

/// Materializes the depth-0 visit order: the window sorted by the
/// driver column (after opening the merge cursor's permutation), or the
/// driver's candidates under its constants. An empty plan has no
/// candidates and builds no index.
void JoinPlan::Impl::SettleDriver() {
  if (steps.empty() || empty) return;
  const Step& driver = steps[0];
  switch (driver.access) {
    case Access::kScan:
      driver_first = driver.begin;
      driver_size = driver.end - driver.begin;
      return;
    case Access::kSortedScan:
      cursor_range = steps[1].rel->Sorted(steps[1].pos);
      driver.rel->SortWindow(driver.pos, static_cast<uint32_t>(driver.begin),
                             static_cast<uint32_t>(driver.end),
                             &driver_order);
      break;
    default: {
      // A seeded plan (AtomProbe) is re-run with other seed values.
      if (seeded) {
        settled = false;
        return;
      }
      Tuple scratch;
      ForEachCandidate(driver, seed, &scratch, [&](uint32_t idx) {
        driver_order.push_back(idx);
        return true;
      });
    }
  }
  driver_size = driver_order.size();
}

/// One run of a plan: the binding, the matched facts, the merge cursor,
/// the leapfrog slices and the deadline poll. Backtracks over the plan's
/// steps, with negated atoms checked once the positive body is bound
/// (rule safety guarantees their variables are bound by then).
class JoinRun {
 public:
  JoinRun(const JoinPlan& plan, const MatchFn& fn)
      : plan_(*plan.impl_),
        fn_(fn),
        binding_(plan_.seed),
        refs_(plan_.positive.size()),
        lf_slices_(plan_.lf_atoms.size()),
        deadline_set_(plan_.deadline !=
                      std::chrono::steady_clock::time_point{}) {}

  /// Replaces the seed. It must bind the same variables in the same
  /// order as the plan's seed (AtomProbe's contract), so the plan holds.
  void Reseed(const Binding& seed) { binding_ = seed; }

  Status Run(size_t begin, size_t end) {
    status_ = Status::OK();
    cursor_ = plan_.cursor_range.begin();
    if (plan_.steps.empty()) {
      EmitIfNegativesHold();
    } else if (!plan_.settled) {
      Enumerate(0);
    } else {
      for (size_t i = begin; i < end; ++i) {
        if (!TryTuple(0, plan_.DriverTuple(i))) break;
      }
    }
    return status_;
  }

 private:
  using Impl = JoinPlan::Impl;

  // Returns false to propagate early termination.
  bool Recurse(size_t depth) {
    if (depth == plan_.steps.size()) return EmitIfNegativesHold();
    if (plan_.leapfrog && depth == 1) {
      // The whole residual runs as one leapfrog join per driver tuple.
      return RunLeapfrog();
    }
    return Enumerate(depth);
  }

  /// Unifies the step's atom with tuple `idx` and descends.
  bool TryTuple(size_t depth, uint32_t idx) {
    const Step& step = plan_.steps[depth];
    const std::vector<Term>& args = step.atom->args;
    TupleView tuple = step.rel->tuple(idx);
    size_t mark = binding_.size();
    bool unified = true;
    for (uint32_t pos = 0; pos < args.size(); ++pos) {
      Term pattern = binding_.Apply(args[pos]);
      if (pattern.IsVariable()) {
        binding_.Bind(pattern, tuple[pos]);
      } else if (pattern != tuple[pos]) {
        unified = false;
        break;
      }
    }
    bool keep_going = true;
    if (unified) {
      refs_[step.slot] = FactRef{step.atom->predicate, idx};
      keep_going = Recurse(depth + 1);
    }
    binding_.PopTo(mark);
    return keep_going;
  }

  /// Enumerates a step below the depth-0 order (or the first step of an
  /// unsettled plan) along its planned access path. Runs of an empty
  /// plan visit nothing, so every step here has a relation and a
  /// non-empty window.
  bool Enumerate(size_t depth) {
    const Step& step = plan_.steps[depth];
    if (step.access == Access::kMergeCursor) {
      // The driver feeds nondecreasing values of the shared variable, so
      // one galloping cursor walks the sorted permutation forward
      // instead of probing per binding.
      const SortedRange& range = plan_.cursor_range;
      Term v = binding_.Apply(step.atom->args[step.pos]);
      cursor_ = range.SeekValue(cursor_, v);
      for (const uint32_t* it = cursor_;
           it != range.end() && range.ValueAt(it) == v; ++it) {
        if (*it < step.begin || *it >= step.end) continue;
        if (!TryTuple(depth, *it)) return false;
      }
      return true;
    }
    if (step.access == Access::kScan) {
      for (size_t idx = step.begin; idx < step.end; ++idx) {
        if (!TryTuple(depth, static_cast<uint32_t>(idx))) return false;
      }
      return true;
    }
    return ForEachCandidate(step, binding_, &probe_tuple_, [&](uint32_t idx) {
      return TryTuple(depth, idx);
    });
  }

  /// Runs the leapfrog residual for the current depth-0 binding:
  /// narrows every atom's trie slice through its restricted prefix,
  /// resolves fully-restricted atoms through the dedup table, then
  /// intersects variable by variable. Returns false only to propagate
  /// the callback's early stop.
  bool RunLeapfrog() {
    for (size_t ai = 0; ai < plan_.lf_atoms.size(); ++ai) {
      const Impl::LfAtom& a = plan_.lf_atoms[ai];
      if (a.fully_restricted) {
        // Every position bound: O(1) membership witness, no trie walk.
        // Residual atoms scan [0, end): the delta window drives.
        const Step& step = plan_.steps[ai + 1];
        probe_tuple_.clear();
        for (Term arg : step.atom->args) {
          probe_tuple_.push_back(binding_.Apply(arg));
        }
        uint32_t idx = step.rel->FindIndex(probe_tuple_);
        if (idx == Relation::kNotFound || idx >= step.end) return true;
        refs_[step.slot] = FactRef{step.atom->predicate, idx};
        continue;
      }
      Slice& s = lf_slices_[ai];
      s.lo = a.perm->data();
      s.hi = a.perm->data() + a.perm->size();
      for (size_t d = 0; d < a.num_restricted; ++d) {
        Term v = binding_.Apply(a.levels[d].pattern);
        SortedRange eq = SortedRange(s.lo, s.hi, a.levels[d].col).Equal(v);
        if (eq.empty()) return true;
        s.lo = eq.begin();
        s.hi = eq.end();
      }
    }
    return LeapfrogVar(0);
  }

  /// The leapfrog loop for one join variable: gallop every participant's
  /// cursor to the running max of the current level until all agree,
  /// narrow each participant through the variable's occurrence levels,
  /// bind and recurse, then resume past the value. Scratch lives in
  /// member stacks (mark/restore) so the hot path never allocates.
  bool LeapfrogVar(size_t vi) {
    if (vi == plan_.lf_vars.size()) return LeapfrogLeaf();
    const Impl::LfVar& var = plan_.lf_vars[vi];
    const size_t k = var.occs.size();
    auto level_col = [&](size_t j, uint32_t level) {
      return plan_.lf_atoms[var.occs[j].atom].levels[level].col;
    };
    const size_t save_mark = lf_save_.size();
    for (const Impl::LfOcc& occ : var.occs) {
      lf_save_.push_back(lf_slices_[occ.atom].lo);
      lf_save_.push_back(lf_slices_[occ.atom].hi);
    }
    // Per-participant scratch: [3j] = resume point past the current
    // value, [3j+1] / [3j+2] = the narrowed child slice.
    const size_t ptr_mark = lf_ptrs_.size();
    lf_ptrs_.resize(ptr_mark + 3 * k);
    bool keep_going = true;
    for (;;) {
      // The gallop can align cursors for a long time without emitting a
      // single match (so the chase's per-match deadline check would
      // never run): poll the clock here, once per 1024 alignment
      // rounds across the whole pass.
      if (DeadlineTripped()) {
        keep_going = false;
        break;
      }
      // Current max over the participants' first-occurrence levels.
      Term vmax;
      bool exhausted = false;
      for (size_t j = 0; j < k; ++j) {
        const Slice& s = lf_slices_[var.occs[j].atom];
        if (s.lo == s.hi) {
          exhausted = true;
          break;
        }
        Term v = level_col(j, var.occs[j].level_begin)[*s.lo];
        if (j == 0 || vmax < v) vmax = v;
      }
      if (exhausted) break;
      // Gallop everyone to >= vmax; an overshoot raises the max and
      // restarts the alignment round.
      bool aligned = true;
      for (size_t j = 0; j < k; ++j) {
        Slice& s = lf_slices_[var.occs[j].atom];
        const Term* col = level_col(j, var.occs[j].level_begin);
        s.lo = SortedRange(s.lo, s.hi, col).SeekValue(s.lo, vmax);
        if (s.lo == s.hi) {
          exhausted = true;
          break;
        }
        if (col[*s.lo] != vmax) aligned = false;
      }
      if (exhausted) break;
      if (!aligned) continue;
      // All participants sit on vmax: slice out its equal range (the
      // resume point is its end) and narrow through any repeated
      // occurrences of the variable in the same atom.
      bool all_nonempty = true;
      for (size_t j = 0; j < k; ++j) {
        const Slice& s = lf_slices_[var.occs[j].atom];
        const Impl::LfOcc& occ = var.occs[j];
        SortedRange eq =
            SortedRange(s.lo, s.hi, level_col(j, occ.level_begin)).Equal(vmax);
        lf_ptrs_[ptr_mark + 3 * j] = eq.end();
        const uint32_t* nlo = eq.begin();
        const uint32_t* nhi = eq.end();
        for (uint32_t d = occ.level_begin + 1;
             d < occ.level_end && nlo != nhi; ++d) {
          SortedRange sub = SortedRange(nlo, nhi, level_col(j, d)).Equal(vmax);
          nlo = sub.begin();
          nhi = sub.end();
        }
        lf_ptrs_[ptr_mark + 3 * j + 1] = nlo;
        lf_ptrs_[ptr_mark + 3 * j + 2] = nhi;
        if (nlo == nhi) all_nonempty = false;
      }
      if (all_nonempty) {
        for (size_t j = 0; j < k; ++j) {
          Slice& s = lf_slices_[var.occs[j].atom];
          s.lo = lf_ptrs_[ptr_mark + 3 * j + 1];
          s.hi = lf_ptrs_[ptr_mark + 3 * j + 2];
        }
        const size_t bind_mark = binding_.size();
        binding_.Bind(var.var, vmax);
        keep_going = LeapfrogVar(vi + 1);
        binding_.PopTo(bind_mark);
        if (!keep_going) break;
      }
      // Resume past vmax: cursor to the equal range's end, slice end
      // back to the pre-loop bound.
      for (size_t j = 0; j < k; ++j) {
        Slice& s = lf_slices_[var.occs[j].atom];
        s.lo = lf_ptrs_[ptr_mark + 3 * j];
        s.hi = lf_save_[save_mark + 2 * j + 1];
      }
    }
    // Restore the participants' slices for the caller's next value.
    for (size_t j = 0; j < k; ++j) {
      Slice& s = lf_slices_[var.occs[j].atom];
      s.lo = lf_save_[save_mark + 2 * j];
      s.hi = lf_save_[save_mark + 2 * j + 1];
    }
    lf_save_.resize(save_mark);
    lf_ptrs_.resize(ptr_mark);
    return keep_going;
  }

  /// Every leapfrog variable is bound: each non-restricted atom's slice
  /// is fully narrowed, and duplicate-free storage makes it a singleton
  /// witness. Window checks happen here — slices are value-ordered, so
  /// the tuple-index cap can only be enforced on the witness itself.
  bool LeapfrogLeaf() {
    for (size_t ai = 0; ai < plan_.lf_atoms.size(); ++ai) {
      if (plan_.lf_atoms[ai].fully_restricted) continue;  // in RunLeapfrog
      const Step& step = plan_.steps[ai + 1];
      const Slice& s = lf_slices_[ai];
      if (s.lo == s.hi) return true;
      uint32_t idx = *s.lo;
      if (idx >= step.end) return true;
      refs_[step.slot] = FactRef{step.atom->predicate, idx};
    }
    return EmitIfNegativesHold();
  }

  bool EmitIfNegativesHold() {
    for (const Atom* atom : plan_.negative) {
      probe_tuple_.clear();
      for (Term t : atom->args) {
        Term v = binding_.Apply(t);
        if (v.IsVariable()) {
          // An unsafe rule slipped past Program validation; error out
          // instead of silently treating the negation as satisfied.
          status_ = Status::InvalidArgument(
              "negated atom over predicate " +
              plan_.instance.dict().Text(atom->predicate) +
              " has an unbound variable after matching the positive body; "
              "the rule is unsafe");
          return false;
        }
        probe_tuple_.push_back(v);
      }
      if (plan_.instance.Contains(atom->predicate, probe_tuple_)) return true;
    }
    Match match{&binding_, &refs_};
    return fn_(match);
  }

  /// Polls the pass deadline every 1024 calls; on expiry records
  /// ResourceExhausted in status_ and returns true so the caller
  /// unwinds through the usual early-stop path.
  bool DeadlineTripped() {
    if (!deadline_set_ || (++deadline_steps_ & 1023u) != 0) return false;
    if (std::chrono::steady_clock::now() < plan_.deadline) return false;
    status_ = Status::ResourceExhausted("match pass exceeded the deadline");
    return true;
  }

  /// A leapfrog atom's current slice [lo, hi) of its lex permutation.
  struct Slice {
    const uint32_t* lo = nullptr;
    const uint32_t* hi = nullptr;
  };

  const Impl& plan_;
  const MatchFn& fn_;
  Binding binding_;
  std::vector<FactRef> refs_;  // matched fact per slot (= body order)
  Tuple probe_tuple_;  // find-index and negated-atom probes
  const uint32_t* cursor_ = nullptr;
  std::vector<Slice> lf_slices_;
  // Recursion scratch stacks (see LeapfrogVar); grown once, reused.
  std::vector<const uint32_t*> lf_save_;
  std::vector<const uint32_t*> lf_ptrs_;
  const bool deadline_set_;
  uint64_t deadline_steps_ = 0;
  Status status_ = Status::OK();
};

JoinPlan::JoinPlan(const Rule& rule, const Instance& instance,
                   const MatchOptions& options)
    : impl_(std::make_unique<const Impl>(rule, instance, options)) {}

JoinPlan::~JoinPlan() = default;

size_t JoinPlan::driver_size() const { return impl_->driver_size; }

Status JoinPlan::Run(size_t begin, size_t end, const MatchFn& fn) const {
  return JoinRun(*this, fn).Run(begin, end);
}

void JoinPlan::FreezeIndexes() const {
  const Impl& plan = *impl_;
  if (plan.empty) return;
  for (size_t depth = 1; depth < plan.steps.size(); ++depth) {
    const Step& step = plan.steps[depth];
    if (step.access != Access::kPostings) continue;
    for (uint32_t pos = 0; pos < step.atom->args.size(); ++pos) {
      if (plan.BoundAt(depth, step.atom->args[pos])) {
        step.rel->FreezeIndex(pos);
      }
    }
  }
}

std::string JoinPlan::Explain() const {
  const Impl& plan = *impl_;
  std::string out = "  strategy: ";
  if (plan.leapfrog) {
    out += "leapfrog";
  } else if (plan.steps.size() >= 2 &&
             plan.steps[1].access == Access::kMergeCursor) {
    out += "merge";
  } else {
    out += "postings";
  }
  out += plan.strategy == JoinStrategy::kBinary ? " (binary)\n" : " (auto)\n";
  for (size_t depth = 0; depth < plan.steps.size(); ++depth) {
    const Step& step = plan.steps[depth];
    size_t num_bound = 0;
    size_t size = 0;
    double est = EstimateAtom(
        step, [&](Term t) { return plan.BoundAt(depth, t); }, &num_bound,
        &size);
    std::string access;
    switch (step.access) {
      case Access::kScan:
        access = plan.positive[step.slot] == plan.delta_body_index
                     ? "delta-scan"
                     : "scan";
        break;
      case Access::kSortedScan:
        access = "sorted-scan(pos " + std::to_string(step.pos) + ")";
        break;
      case Access::kPostings:
        access = "postings";
        break;
      case Access::kFindIndex:
        access = "find-index";
        break;
      case Access::kMergeCursor:
        access = "merge-cursor(pos " + std::to_string(step.pos) + ")";
        break;
      case Access::kLeapfrog: {
        access = "leapfrog[";
        const std::vector<uint32_t>& key = plan.lf_atoms[depth - 1].key;
        for (size_t i = 0; i < key.size(); ++i) {
          if (i > 0) access += ",";
          access += std::to_string(key[i]);
        }
        access += "]";
        break;
      }
    }
    char est_buf[32];
    std::snprintf(est_buf, sizeof(est_buf), "%.3g", est);
    out += "  " + std::to_string(depth) + ": " +
           AtomToString(*step.atom, plan.instance.dict()) + "  " + access +
           "  rows~" + est_buf + " (window " + std::to_string(size) + ")\n";
  }
  return out;
}

Status MatchBody(const Rule& rule, const Instance& instance,
                 const MatchOptions& options, const MatchFn& fn) {
  const JoinPlan plan(rule, instance, options);
  return plan.Run(0, plan.driver_size(), fn);
}

namespace {

Rule ProbeRule(const std::vector<Atom>& atoms) {
  Rule probe;
  probe.body = atoms;
  for (Atom& a : probe.body) a.negated = false;
  return probe;
}

MatchOptions ProbeOptions(const Binding* seed, std::vector<size_t> atom_end) {
  MatchOptions options;
  options.seed = seed;
  options.atom_end = std::move(atom_end);
  return options;
}

}  // namespace

bool HasMatch(const std::vector<Atom>& atoms, const Instance& instance,
              const Binding& seed) {
  Rule probe = ProbeRule(atoms);
  bool found = false;
  // The probe body is positive-only, so the run cannot fail.
  TRIQ_IGNORE_STATUS(MatchBody(probe, instance, ProbeOptions(&seed, {}),
                               [&](const Match&) {
                                 found = true;
                                 return false;  // stop at first witness
                               }));
  return found;
}

struct AtomProbe::Impl {
  Impl(const Atom& atom, const Instance& instance, const Binding& prototype,
       size_t window_end)
      : rule(ProbeRule({atom})),
        plan(rule, instance, ProbeOptions(&prototype, {window_end})),
        stop_at_first([this](const Match&) {
          found = true;
          return false;  // stop at first witness
        }),
        run(plan, stop_at_first) {}

  // Declaration order is construction order: the plan and the run hold
  // references to the members above them.
  Rule rule;
  JoinPlan plan;
  bool found = false;
  MatchFn stop_at_first;
  JoinRun run;
};

AtomProbe::AtomProbe(const Atom& atom, const Instance& instance,
                     const Binding& prototype, size_t window_end)
    : impl_(std::make_unique<Impl>(atom, instance, prototype, window_end)) {}

AtomProbe::~AtomProbe() = default;

bool AtomProbe::HasMatch(const Binding& seed) {
  impl_->found = false;
  impl_->run.Reseed(seed);
  // The probe body is one positive atom, so the run cannot fail.
  TRIQ_IGNORE_STATUS(impl_->run.Run(0, impl_->plan.driver_size()));
  return impl_->found;
}

}  // namespace triq::chase
