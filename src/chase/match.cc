#include "chase/match.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "datalog/atom.h"

namespace triq::chase {

namespace {

using datalog::Atom;
using datalog::Rule;

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

/// Backtracking join over the positive body, with negated atoms checked
/// once their variables are bound (rule safety guarantees this happens
/// after all positive atoms).
///
/// The join order and each atom's access path are planned once up
/// front, and both depend only on *which* variables are bound at each
/// depth plus per-relation statistics — never on bound values — so the
/// plan is identical across all branches of the search and across
/// thread counts. The delta atom is pinned first (its window drives
/// the pass); under kAuto each later depth takes the atom with the
/// smallest estimated match count given the variables bound so far —
/// window size divided by the estimated distinct count
/// (Relation::EstimatedDistinct) of every bound position — while
/// kBinary keeps the written order. On top of the order the planner
/// picks access paths (see JoinStrategy): a leapfrog-triejoin residual
/// when kAuto calls for it (the driver enumerates as usual; the
/// remaining atoms are joined variable-at-a-time over lexicographic
/// permutations with galloping seeks), else a depth-1 merge cursor
/// when the first two atoms share a variable, with per-binding posting
/// probes — binary-searched Equal() ranges, intersecting the two
/// shortest — as the fallback everywhere deeper.
class Matcher {
 public:
  Matcher(const Rule& rule, const Instance& instance,
          const MatchOptions& options,
          const std::function<bool(const Match&)>& fn)
      : rule_(rule), instance_(instance), options_(options), fn_(fn) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].negated) {
        negative_.push_back(&rule.body[i]);
      } else {
        positive_.push_back(static_cast<int>(i));
      }
    }
    // positive_ is built in body order, so slot order == body order and
    // refs_ can be handed to the callback without re-sorting.
    refs_.resize(positive_.size());
    if (options.seed != nullptr) binding_ = *options.seed;
    PlanJoin();
  }

  Status Run() {
    deadline_set_ =
        options_.deadline != std::chrono::steady_clock::time_point{};
    Recurse(0);
    return status_;
  }

  /// Re-arms a planned matcher for another Run with a fresh seed. The
  /// seed must bind the same variables in the same order as the one
  /// the plan was made with (AtomProbe's contract), so the plan holds.
  void Reseed(const Binding& seed) {
    binding_ = seed;
    status_ = Status::OK();
    merge_active_ = false;
  }

  /// Mirrors the depth-0 access-path choice of EnumerateCandidates and
  /// materializes the exact tuple visit order, so the parallel chase can
  /// slice it into shards (see DriverPlan in match.h). Must stay in
  /// lockstep with the depth-0 branches below: any divergence breaks the
  /// "concatenated shards == unsharded stream" contract.
  DriverPlan MakeDriverPlan() {
    DriverPlan out;
    if (plan_.empty()) return out;
    const DepthPlan& plan = plan_[0];
    int slot = plan.slot;
    const Atom& atom = rule_.body[positive_[slot]];
    out.body_index = positive_[slot];
    const Relation* rel = instance_.Find(atom.predicate);
    if (rel == nullptr || rel->arity() != atom.args.size()) return out;
    auto [begin, end] = SlotWindow(slot);
    end = std::min(end, rel->size());
    if (begin >= end) return out;

    // Bound positions under the seed binding: the unsharded matcher
    // visits a posting intersection in ascending tuple-index order, so
    // the shortest window-clamped posting list is an ascending superset
    // with the same relative order (shards re-unify every position).
    SortedRange shortest;
    bool have_bound = false;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      Term val = binding_.Apply(atom.args[pos]);
      if (val.IsVariable()) continue;
      SortedRange p = rel->Postings(pos, val);
      if (p.empty()) return out;  // some bound position has no fact
      if (!have_bound || p.size() < shortest.size()) shortest = p;
      have_bound = true;
    }
    if (have_bound) {
      const uint32_t* it = std::lower_bound(
          shortest.begin(), shortest.end(), static_cast<uint32_t>(begin));
      for (; it != shortest.end() && *it < end; ++it) out.order.push_back(*it);
      CollectProbePairs(&out);
      return out;
    }

    if (SortedDriverReady(end - begin)) {
      rel->SortWindow(plan.driver_pos, static_cast<uint32_t>(begin),
                      static_cast<uint32_t>(end), &out.order);
      out.sorted = true;
    } else {
      out.order.reserve(end - begin);
      for (uint32_t idx = static_cast<uint32_t>(begin); idx < end; ++idx) {
        out.order.push_back(idx);
      }
    }
    CollectProbePairs(&out);
    return out;
  }

  /// Records every (predicate, position) whose sorted permutation a
  /// depth >= 1 step may read: posting probes on positions bound by
  /// then, and the depth-1 merge cursor. Atoms fully bound at their
  /// depth resolve through the dedup table (FindIndex), which needs no
  /// permutation — unless the merge cursor reads them anyway.
  void CollectProbePairs(DriverPlan* out) const {
    if (lftj_) {
      // Below the driver the leapfrog residual reads lex permutations;
      // a single-position key aliases the sorted permutation, so it is
      // frozen through probe_index_pairs like any probe. Fully
      // restricted atoms resolve through the dedup table (no index).
      for (const LfAtom& a : lf_atoms_) {
        if (a.rel == nullptr || a.fully_restricted) continue;
        if (a.key.size() == 1) {
          out->probe_index_pairs.emplace_back(a.atom->predicate, a.key[0]);
        } else {
          out->lex_index_pairs.emplace_back(a.atom->predicate, a.key);
        }
      }
      return;
    }
    for (size_t depth = 1; depth < plan_.size(); ++depth) {
      const Atom& atom = rule_.body[positive_[plan_[depth].slot]];
      size_t num_bound = 0;
      for (Term t : atom.args) {
        if (BoundAt(depth, t)) ++num_bound;
      }
      bool fully_ground = num_bound == atom.args.size() && !atom.args.empty();
      if (!fully_ground) {
        for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
          if (BoundAt(depth, atom.args[pos])) {
            out->probe_index_pairs.emplace_back(atom.predicate, pos);
          }
        }
      }
      if (plan_[depth].merge_cursor) {
        out->probe_index_pairs.emplace_back(atom.predicate,
                                            plan_[depth].cursor_pos);
      }
    }
  }

  /// Renders the planned join: strategy, then one line per atom in join
  /// order with its access path and the estimate the planner ranked it
  /// by (under the boundness PlanJoin recorded for its depth).
  std::string Explain() {
    std::string out = "  strategy: ";
    if (lftj_) {
      out += "leapfrog";
    } else if (plan_.size() >= 2 && plan_[1].merge_cursor) {
      out += "merge";
    } else {
      out += "hash";
    }
    out += options_.join_strategy == JoinStrategy::kBinary ? " (binary)\n"
                                                            : " (auto)\n";
    for (size_t depth = 0; depth < plan_.size(); ++depth) {
      int slot = plan_[depth].slot;
      const Atom& atom = rule_.body[positive_[slot]];
      size_t num_bound = 0;
      size_t size = 0;
      double est = EstimateAtom(
          slot, [&](Term t) { return BoundAt(depth, t); }, &num_bound, &size);
      std::string access;
      if (depth == 0) {
        access = positive_[slot] == options_.delta_body_index
                     ? "delta-scan"
                     : "scan";
        if (num_bound > 0) {
          access = "postings";
        } else if (plan_[depth].sorted_driver) {
          access = "sorted-scan(pos " +
                   std::to_string(plan_[depth].driver_pos) + ")";
        }
      } else if (lftj_) {
        const LfAtom& a = lf_atoms_[depth - 1];
        if (a.fully_restricted) {
          access = "find-index";
        } else {
          access = "leapfrog[";
          for (size_t i = 0; i < a.key.size(); ++i) {
            if (i > 0) access += ",";
            access += std::to_string(a.key[i]);
          }
          access += "]";
        }
      } else if (plan_[depth].merge_cursor) {
        access = "merge-cursor(pos " +
                 std::to_string(plan_[depth].cursor_pos) + ")";
      } else if (num_bound == atom.args.size() && !atom.args.empty()) {
        access = "find-index";
      } else if (num_bound > 0) {
        access = "postings";
      } else {
        access = "scan";
      }
      char est_buf[32];
      std::snprintf(est_buf, sizeof(est_buf), "%.3g", est);
      out += "  " + std::to_string(depth) + ": " +
             AtomToString(atom, instance_.dict()) + "  " + access +
             "  rows~" + est_buf + " (window " + std::to_string(size) +
             ")\n";
    }
    return out;
  }

 private:
  /// One planned join step: the slot to enumerate at this depth and the
  /// access path chosen for it.
  struct DepthPlan {
    int slot = -1;
    /// Depth 0 only: enumerate the window ordered by the value of
    /// column `driver_pos` (enables the cursor below).
    bool sorted_driver = false;
    uint32_t driver_pos = 0;
    /// Depth 1 only: the driver feeds this atom nondecreasing values of
    /// the shared variable; read it with a galloping cursor on the
    /// sorted permutation of column `cursor_pos`.
    bool merge_cursor = false;
    uint32_t cursor_pos = 0;
  };

  /// Computes the join order (hoisting the most-bound-first heuristic
  /// out of the recursion), records which variables each depth sees
  /// bound, and assigns access paths.
  void PlanJoin() {
    plan_.resize(positive_.size());
    bound_before_.assign(positive_.size() + 1, 0);
    std::vector<bool> used(positive_.size(), false);
    if (options_.seed != nullptr) {
      for (const auto& [var, val] : options_.seed->entries()) {
        bind_order_.push_back(var);
      }
    }
    for (size_t depth = 0; depth < positive_.size(); ++depth) {
      bound_before_[depth] = bind_order_.size();
      int slot = PickNextAtom(used, [&](Term t) { return BoundAt(depth, t); });
      plan_[depth].slot = slot;
      used[slot] = true;
      for (Term t : rule_.body[positive_[slot]].args) {
        if (t.IsVariable() && std::find(bind_order_.begin(), bind_order_.end(),
                                        t) == bind_order_.end()) {
          bind_order_.push_back(t);
        }
      }
    }
    bound_before_[positive_.size()] = bind_order_.size();
    if (plan_.size() < 2) return;
    if (ShouldLeapfrog()) {
      PlanLeapfrog();
      return;
    }
    // Merge join needs a driver that full-scans its window (no bound
    // argument — probes would enumerate in tuple-index order) and a
    // second atom sharing one of the driver's variables. The shared
    // variable must be bound at its first occurrence in the driver, so
    // its bind order follows the sorted column.
    const Atom& a0 = rule_.body[positive_[plan_[0].slot]];
    for (Term t : a0.args) {
      if (BoundAt(0, t)) return;
    }
    const Atom& a1 = rule_.body[positive_[plan_[1].slot]];
    for (uint32_t p = 0; p < a0.args.size(); ++p) {
      Term var = a0.args[p];
      bool first_occurrence = true;
      for (uint32_t q = 0; q < p; ++q) {
        if (a0.args[q] == var) first_occurrence = false;
      }
      if (!first_occurrence) continue;
      for (uint32_t q = 0; q < a1.args.size(); ++q) {
        if (a1.args[q] != var) continue;
        plan_[0].sorted_driver = true;
        plan_[0].driver_pos = p;
        plan_[1].merge_cursor = true;
        plan_[1].cursor_pos = q;
        return;
      }
    }
  }

  /// Whether `t` is a constant or a variable bound before the atom at
  /// `depth` is enumerated (seed variables, then every variable of the
  /// atoms at shallower depths) — PlanJoin's value-independent record,
  /// which every reader of the plan shares.
  bool BoundAt(size_t depth, Term t) const {
    if (!t.IsVariable()) return true;
    auto end = bind_order_.begin() + bound_before_[depth];
    return std::find(bind_order_.begin(), end, t) != end;
  }

  /// Whether the depth-0 driver enumerates its `window`-tuple scan in
  /// value order, feeding the depth-1 merge cursor. kBinary sorts
  /// whenever the plan has a merge cursor; kAuto only once the window
  /// amortizes the sort. Opens the cursor as a side effect; false when
  /// the second atom has no usable relation.
  bool SortedDriverReady(size_t window) {
    return plan_[0].sorted_driver &&
           (options_.join_strategy == JoinStrategy::kBinary ||
            window >= kAutoMergeMinWindow) &&
           SetUpCursor();
  }

  /// Estimated number of matching tuples for slot `i` per intermediate
  /// binding, given which variables are bound: the atom's effective
  /// window size divided by the estimated distinct count of every
  /// statically-bound position (the Trident/RDF-3X
  /// selectivity-from-index-statistics model, read off the O(1)
  /// per-position sketches so estimating never syncs an index). Value-
  /// independent, hence identical across strategies and thread counts.
  /// A fully bound atom caps at one row — it resolves through the dedup
  /// table. Also reports the bound-position count and window size for
  /// the deterministic tie-breaks.
  template <typename BoundFn>
  double EstimateAtom(int i, const BoundFn& is_bound, size_t* bound_out,
                      size_t* size_out) const {
    const Atom& atom = rule_.body[positive_[i]];
    const Relation* rel = instance_.Find(atom.predicate);
    bool usable = rel != nullptr && rel->arity() == atom.args.size();
    size_t size = 0;
    if (usable) {
      auto [begin, end] = SlotWindow(i);
      end = std::min(end, rel->size());
      size = end > begin ? end - begin : 0;
    }
    double est = static_cast<double>(size);
    size_t num_bound = 0;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      if (!is_bound(atom.args[pos])) continue;
      ++num_bound;
      if (usable && size > 0) {
        est /= std::max(1.0, rel->EstimatedDistinct(pos));
      }
    }
    if (num_bound == atom.args.size() && !atom.args.empty()) {
      est = std::min(est, 1.0);
    }
    *bound_out = num_bound;
    *size_out = size;
    return est;
  }

  // The delta atom is pinned first (its window is the pass's driver).
  // kBinary then takes the atoms in written order; kAuto orders by cost:
  // each depth takes the unprocessed atom with the smallest estimated
  // match count under the variables bound so far. Ties break
  // deterministically: more bound positions, then smaller window, then
  // lower slot index — never a value or an address.
  template <typename BoundFn>
  int PickNextAtom(const std::vector<bool>& used,
                   const BoundFn& is_bound) const {
    for (size_t i = 0; i < positive_.size(); ++i) {
      if (!used[i] && positive_[i] == options_.delta_body_index) {
        return static_cast<int>(i);
      }
    }
    if (options_.join_strategy == JoinStrategy::kBinary) {
      for (size_t i = 0; i < positive_.size(); ++i) {
        if (!used[i]) return static_cast<int>(i);
      }
    }
    int best = -1;
    double best_est = 0.0;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < positive_.size(); ++i) {
      if (used[i]) continue;
      size_t num_bound = 0;
      size_t size = 0;
      double est =
          EstimateAtom(static_cast<int>(i), is_bound, &num_bound, &size);
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

  /// Whether the plan runs the residual (every atom below the driver)
  /// as one leapfrog triejoin: kAuto only, with ≥3 positive atoms and
  /// ≥2 residual atoms sharing a variable the driver leaves unbound —
  /// the shape where a binary plan materializes an intermediate result
  /// the multi-way intersection never builds. Value-independent.
  bool ShouldLeapfrog() const {
    if (options_.join_strategy != JoinStrategy::kAuto) return false;
    if (plan_.size() < 3) return false;
    for (size_t d1 = 1; d1 < plan_.size(); ++d1) {
      const Atom& a1 = rule_.body[positive_[plan_[d1].slot]];
      for (Term v : a1.args) {
        if (BoundAt(1, v)) continue;
        for (size_t d2 = d1 + 1; d2 < plan_.size(); ++d2) {
          const Atom& a2 = rule_.body[positive_[plan_[d2].slot]];
          for (Term t : a2.args) {
            if (t == v) return true;
          }
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
  /// unbound occurrence across the residual in join order. All of it is
  /// value-independent; the lex permutations are pre-built here (plan
  /// time runs on the scheduling thread) and re-frozen via
  /// DriverPlan::lex_index_pairs before parallel fan-out.
  void PlanLeapfrog() {
    lftj_ = true;
    auto is_bound = [&](Term t) { return BoundAt(1, t); };
    std::vector<Term> order;  // leapfrog variables, first occurrence
    for (size_t depth = 1; depth < plan_.size(); ++depth) {
      for (Term t : rule_.body[positive_[plan_[depth].slot]].args) {
        if (!is_bound(t) &&
            std::find(order.begin(), order.end(), t) == order.end()) {
          order.push_back(t);
        }
      }
    }
    lf_vars_.resize(order.size());
    for (size_t vi = 0; vi < order.size(); ++vi) lf_vars_[vi].var = order[vi];

    for (size_t depth = 1; depth < plan_.size(); ++depth) {
      int slot = plan_[depth].slot;
      const Atom& atom = rule_.body[positive_[slot]];
      LfAtom a;
      a.slot = slot;
      a.atom = &atom;
      const Relation* rel = instance_.Find(atom.predicate);
      if (rel != nullptr && rel->arity() == atom.args.size()) a.rel = rel;
      if (a.rel == nullptr) lf_possible_ = false;
      auto [begin, end] = SlotWindow(slot);
      a.window_end = a.rel == nullptr ? 0 : std::min(end, a.rel->size());
      (void)begin;  // residual atoms scan [0, end) — the delta drives
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        if (is_bound(atom.args[pos])) {
          a.levels.push_back(LfLevel{pos, atom.args[pos], -1, nullptr});
        }
      }
      a.num_restricted = a.levels.size();
      int atom_index = static_cast<int>(lf_atoms_.size());
      for (size_t vi = 0; vi < order.size(); ++vi) {
        LfOcc occ;
        occ.atom = atom_index;
        occ.level_begin = 0;
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
          lf_vars_[vi].occs.push_back(occ);
        }
      }
      a.fully_restricted = a.num_restricted == a.levels.size();
      for (const LfLevel& level : a.levels) a.key.push_back(level.pos);
      if (a.rel != nullptr && !a.fully_restricted) {
        a.perm = &a.rel->LexPerm(a.key);
        for (LfLevel& level : a.levels) {
          level.col = a.rel->Column(level.pos).begin();
        }
      }
      lf_atoms_.push_back(std::move(a));
    }
  }

  /// Runs the leapfrog residual for the current depth-0 binding:
  /// narrows every atom's trie slice through its restricted prefix,
  /// resolves fully-restricted atoms through the dedup table, then
  /// intersects variable by variable. Returns false only to propagate
  /// the callback's early stop.
  bool RunLeapfrog() {
    for (LfAtom& a : lf_atoms_) {
      if (a.fully_restricted) {
        // Every position bound: O(1) membership witness, no trie walk.
        probe_tuple_.clear();
        for (Term arg : a.atom->args) {
          probe_tuple_.push_back(binding_.Apply(arg));
        }
        uint32_t idx = a.rel->FindIndex(probe_tuple_);
        if (idx == Relation::kNotFound || idx >= a.window_end) return true;
        refs_[a.slot] = FactRef{a.atom->predicate, idx};
        continue;
      }
      const std::vector<uint32_t>& perm = *a.perm;
      a.lo = perm.data();
      a.hi = perm.data() + perm.size();
      for (size_t d = 0; d < a.num_restricted; ++d) {
        Term v = binding_.Apply(a.levels[d].pattern);
        SortedRange eq = SortedRange(a.lo, a.hi, a.levels[d].col).Equal(v);
        if (eq.empty()) return true;
        a.lo = eq.begin();
        a.hi = eq.end();
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
    if (vi == lf_vars_.size()) return LeapfrogLeaf();
    const LfVar& var = lf_vars_[vi];
    const size_t k = var.occs.size();
    const size_t save_mark = lf_save_.size();
    for (const LfOcc& occ : var.occs) {
      lf_save_.push_back(lf_atoms_[occ.atom].lo);
      lf_save_.push_back(lf_atoms_[occ.atom].hi);
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
        const LfAtom& a = lf_atoms_[var.occs[j].atom];
        if (a.lo == a.hi) {
          exhausted = true;
          break;
        }
        Term v = a.levels[var.occs[j].level_begin].col[*a.lo];
        if (j == 0 || vmax < v) vmax = v;
      }
      if (exhausted) break;
      // Gallop everyone to >= vmax; an overshoot raises the max and
      // restarts the alignment round.
      bool aligned = true;
      for (size_t j = 0; j < k; ++j) {
        LfAtom& a = lf_atoms_[var.occs[j].atom];
        const Term* col = a.levels[var.occs[j].level_begin].col;
        a.lo = SortedRange(a.lo, a.hi, col).SeekValue(a.lo, vmax);
        if (a.lo == a.hi) {
          exhausted = true;
          break;
        }
        if (col[*a.lo] != vmax) aligned = false;
      }
      if (exhausted) break;
      if (!aligned) continue;
      // All participants sit on vmax: slice out its equal range (the
      // resume point is its end) and narrow through any repeated
      // occurrences of the variable in the same atom.
      bool all_nonempty = true;
      for (size_t j = 0; j < k; ++j) {
        LfAtom& a = lf_atoms_[var.occs[j].atom];
        const LfOcc& occ = var.occs[j];
        SortedRange eq =
            SortedRange(a.lo, a.hi, a.levels[occ.level_begin].col)
                .Equal(vmax);
        lf_ptrs_[ptr_mark + 3 * j] = eq.end();
        const uint32_t* nlo = eq.begin();
        const uint32_t* nhi = eq.end();
        for (uint32_t d = occ.level_begin + 1;
             d < occ.level_end && nlo != nhi; ++d) {
          SortedRange sub =
              SortedRange(nlo, nhi, a.levels[d].col).Equal(vmax);
          nlo = sub.begin();
          nhi = sub.end();
        }
        lf_ptrs_[ptr_mark + 3 * j + 1] = nlo;
        lf_ptrs_[ptr_mark + 3 * j + 2] = nhi;
        if (nlo == nhi) all_nonempty = false;
      }
      if (all_nonempty) {
        for (size_t j = 0; j < k; ++j) {
          LfAtom& a = lf_atoms_[var.occs[j].atom];
          a.lo = lf_ptrs_[ptr_mark + 3 * j + 1];
          a.hi = lf_ptrs_[ptr_mark + 3 * j + 2];
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
        LfAtom& a = lf_atoms_[var.occs[j].atom];
        a.lo = lf_ptrs_[ptr_mark + 3 * j];
        a.hi = lf_save_[save_mark + 2 * j + 1];
      }
    }
    // Restore the participants' slices for the caller's next value.
    for (size_t j = 0; j < k; ++j) {
      LfAtom& a = lf_atoms_[var.occs[j].atom];
      a.lo = lf_save_[save_mark + 2 * j];
      a.hi = lf_save_[save_mark + 2 * j + 1];
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
    for (const LfAtom& a : lf_atoms_) {
      if (a.fully_restricted) continue;  // resolved in RunLeapfrog
      if (a.lo == a.hi) return true;
      uint32_t idx = *a.lo;
      if (idx >= a.window_end) return true;
      refs_[a.slot] = FactRef{a.atom->predicate, idx};
    }
    return EmitIfNegativesHold();
  }

  // Returns false to propagate early termination.
  bool Recurse(size_t depth) {
    if (depth == positive_.size()) return EmitIfNegativesHold();
    if (lftj_ && depth == 1) {
      // The whole residual runs as one leapfrog join per driver tuple.
      // An absent residual relation means no matches at all.
      return lf_possible_ ? RunLeapfrog() : true;
    }
    return EnumerateCandidates(depth);
  }

  // The tuple-index window this slot's atom is allowed to scan (see the
  // MatchOptions contract).
  std::pair<size_t, size_t> SlotWindow(int slot) const {
    int body_index = positive_[slot];
    if (body_index == options_.delta_body_index) {
      return {options_.delta_begin, options_.delta_end};
    }
    size_t end = kNoTupleLimit;
    if (static_cast<size_t>(body_index) < options_.atom_end.size()) {
      end = options_.atom_end[body_index];
    }
    return {0, end};
  }

  bool EnumerateCandidates(size_t depth) {
    const DepthPlan& plan = plan_[depth];
    int slot = plan.slot;
    const Atom& atom = rule_.body[positive_[slot]];
    const Relation* rel = instance_.Find(atom.predicate);
    if (rel == nullptr || rel->arity() != atom.args.size()) return true;

    auto try_tuple = [&](uint32_t idx) -> bool {
      TupleView tuple = rel->tuple(idx);
      size_t mark = binding_.size();
      bool unified = true;
      for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
        Term pattern = binding_.Apply(atom.args[pos]);
        if (pattern.IsVariable()) {
          binding_.Bind(pattern, tuple[pos]);
        } else if (pattern != tuple[pos]) {
          unified = false;
          break;
        }
      }
      bool keep_going = true;
      if (unified) {
        refs_[slot] = FactRef{atom.predicate, idx};
        keep_going = Recurse(depth + 1);
      }
      binding_.PopTo(mark);
      return keep_going;
    };

    // Injected depth-0 shard (parallel chase): enumerate exactly the
    // given indices — a slice of PlanMatchDriver's window-clamped order.
    // Bound positions are re-checked by try_tuple's unification, and no
    // lazy index is built, so shard matchers are safe concurrent readers
    // of a frozen instance.
    if (depth == 0 && options_.driver_order != nullptr) {
      if (positive_[slot] != options_.driver_body_index) {
        status_ = Status::Internal(
            "sharded match pass planned body atom " +
            std::to_string(options_.driver_body_index) +
            " as the driver but the join plan enumerates atom " +
            std::to_string(positive_[slot]) + " first");
        return false;
      }
      merge_active_ = options_.driver_sorted && plan_.size() > 1 &&
                      plan_[1].merge_cursor && SetUpCursor();
      for (size_t i = 0; i < options_.driver_order_size; ++i) {
        if (!try_tuple(options_.driver_order[i])) return false;
      }
      return true;
    }

    auto [begin, end] = SlotWindow(slot);
    end = std::min(end, rel->size());
    if (begin >= end) return true;

    // Merge-cursor path: the driver is feeding us nondecreasing values
    // of the shared variable, so one galloping cursor walks the sorted
    // permutation forward instead of probing per binding.
    if (plan.merge_cursor && merge_active_) {
      Term v = binding_.Apply(atom.args[plan.cursor_pos]);
      if (!v.IsVariable()) {
        cursor_ = cursor_range_.SeekValue(cursor_, v);
        for (const uint32_t* it = cursor_;
             it != cursor_range_.end() && cursor_range_.ValueAt(it) == v;
             ++it) {
          uint32_t idx = *it;
          if (idx < begin || idx >= end) continue;
          if (!try_tuple(idx)) return false;
        }
        return true;
      }
      // The shared variable is unexpectedly unbound (defensive): fall
      // through to the probe paths below.
    }

    // Fully ground atom: the dedup table answers the membership
    // question in O(1); no posting range (or permutation sync) needed.
    // Head-satisfaction probes with a fully bound frontier take this
    // path even while the relation is growing between firings.
    probe_tuple_.clear();
    for (Term arg : atom.args) {
      Term val = binding_.Apply(arg);
      if (val.IsVariable()) {
        probe_tuple_.clear();
        break;
      }
      probe_tuple_.push_back(val);
    }
    if (probe_tuple_.size() == atom.args.size() && !atom.args.empty()) {
      uint32_t idx = rel->FindIndex(probe_tuple_);
      if (idx == Relation::kNotFound || idx < begin || idx >= end) {
        return true;
      }
      return try_tuple(idx);
    }

    // Collect the posting ranges for the bound positions, keeping the
    // two shortest: candidates come from their sorted intersection,
    // which prunes far more than scanning one list and re-checking.
    // Only indices below `end` are read, so a permutation synced past
    // the window is used as is.
    SortedRange shortest, second;
    bool have_shortest = false, have_second = false;
    for (uint32_t pos = 0; pos < atom.args.size(); ++pos) {
      Term val = binding_.Apply(atom.args[pos]);
      if (val.IsVariable()) continue;
      SortedRange p = rel->Postings(pos, val, end);
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

    if (have_shortest) {
      // Posting entries ascend by tuple index, so the window seek is a
      // binary search instead of a skip-scan.
      const uint32_t* it =
          std::lower_bound(shortest.begin(), shortest.end(),
                           static_cast<uint32_t>(begin));
      if (!have_second) {
        for (; it != shortest.end() && *it < end; ++it) {
          if (!try_tuple(*it)) return false;
        }
      } else {
        // Walk the shorter list and gallop the longer one to each of
        // its entries: O(|shortest| log gap) instead of a linear walk
        // of the long list.
        const uint32_t* jt = second.begin();
        for (; it != shortest.end() && *it < end; ++it) {
          jt = GallopTo(jt, second.end(), *it);
          if (jt == second.end()) break;
          if (*jt != *it) continue;
          if (!try_tuple(*it)) return false;
          ++jt;
        }
      }
      return true;
    }

    // No bound position: full window scan. At depth 0 the planner may
    // have asked for value order to drive a merge cursor at depth 1.
    if (depth == 0 && SortedDriverReady(end - begin)) {
      rel->SortWindow(plan.driver_pos, static_cast<uint32_t>(begin),
                      static_cast<uint32_t>(end), &window_perm_);
      merge_active_ = true;
      for (uint32_t idx : window_perm_) {
        if (!try_tuple(idx)) return false;
      }
      return true;
    }
    for (uint32_t idx = static_cast<uint32_t>(begin); idx < end; ++idx) {
      if (!try_tuple(idx)) return false;
    }
    return true;
  }

  /// Opens the depth-1 sorted permutation the merge cursor walks.
  /// Returns false when the second atom has no usable relation (the
  /// driver then scans in plain index order; depth 1 finds no
  /// candidates either way).
  bool SetUpCursor() {
    const Atom& next = rule_.body[positive_[plan_[1].slot]];
    const Relation* rel = instance_.Find(next.predicate);
    if (rel == nullptr || rel->arity() != next.args.size() ||
        rel->size() == 0) {
      return false;
    }
    cursor_range_ = rel->Sorted(plan_[1].cursor_pos);
    cursor_ = cursor_range_.begin();
    return true;
  }

  bool EmitIfNegativesHold() {
    for (const Atom* atom : negative_) {
      scratch_tuple_.clear();
      for (Term t : atom->args) {
        Term v = binding_.Apply(t);
        if (v.IsVariable()) {
          // An unsafe rule slipped past Program validation; error out
          // instead of silently treating the negation as satisfied.
          status_ = Status::InvalidArgument(
              "negated atom over predicate " +
              instance_.dict().Text(atom->predicate) +
              " has an unbound variable after matching the positive body; "
              "the rule is unsafe");
          return false;
        }
        scratch_tuple_.push_back(v);
      }
      if (instance_.Contains(atom->predicate, scratch_tuple_)) return true;
    }
    Match match{&binding_, &refs_};
    return fn_(match);
  }

  const Rule& rule_;
  const Instance& instance_;
  const MatchOptions& options_;
  const std::function<bool(const Match&)>& fn_;

  std::vector<int> positive_;        // body indices of positive atoms
  std::vector<const Atom*> negative_;
  std::vector<DepthPlan> plan_;      // depth -> slot + access path
  std::vector<Term> bind_order_;     // variables in plan binding order
  std::vector<size_t> bound_before_;  // depth -> bound prefix of bind_order_
  std::vector<FactRef> refs_;        // matched fact per slot (= body order)
  Tuple scratch_tuple_;              // reused for negated-atom probes
  Tuple probe_tuple_;                // reused for fully-ground atom probes
  std::vector<uint32_t> window_perm_;  // driver window in value order
  SortedRange cursor_range_;         // depth-1 sorted permutation
  const uint32_t* cursor_ = nullptr;
  bool merge_active_ = false;

  /// One trie level of a leapfrog atom: the column position it walks,
  /// the atom argument at that position (a constant or a variable), the
  /// leapfrog variable index that owns the level (-1 = restricted), and
  /// the column base pointer (resolved at plan time; storage never
  /// moves during a pass).
  struct LfLevel {
    uint32_t pos;
    Term pattern;
    int var;
    const Term* col;
  };
  /// One residual atom in the leapfrog plan: its trie key (level
  /// positions), its lex permutation, and the current slice [lo, hi)
  /// into that permutation as the join descends.
  struct LfAtom {
    int slot = -1;
    const Atom* atom = nullptr;
    const Relation* rel = nullptr;
    size_t window_end = 0;
    std::vector<uint32_t> key;
    std::vector<LfLevel> levels;
    size_t num_restricted = 0;
    bool fully_restricted = false;
    const std::vector<uint32_t>* perm = nullptr;
    const uint32_t* lo = nullptr;
    const uint32_t* hi = nullptr;
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
  bool lftj_ = false;        // residual runs as a leapfrog triejoin
  bool lf_possible_ = true;  // false: a residual relation is absent
  std::vector<LfAtom> lf_atoms_;
  std::vector<LfVar> lf_vars_;
  // Recursion scratch stacks (see LeapfrogVar); grown once, reused.
  std::vector<const uint32_t*> lf_save_;
  std::vector<const uint32_t*> lf_ptrs_;

  /// Polls the pass deadline every 1024 calls; on expiry records
  /// ResourceExhausted in status_ and returns true so the caller
  /// unwinds through the usual early-stop path.
  bool DeadlineTripped() {
    if (!deadline_set_ || (++deadline_steps_ & 1023u) != 0) return false;
    if (std::chrono::steady_clock::now() < options_.deadline) return false;
    status_ = Status::ResourceExhausted("match pass exceeded the deadline");
    return true;
  }

  bool deadline_set_ = false;
  uint64_t deadline_steps_ = 0;

  Binding binding_;
  Status status_ = Status::OK();
};

}  // namespace

Status MatchBody(const datalog::Rule& rule, const Instance& instance,
                 const MatchOptions& options,
                 const std::function<bool(const Match&)>& fn) {
  // A non-null driver_order marks this call as one sharded slice of a
  // parallel pass: every index the plan can probe was frozen before
  // fan-out, so flag the thread and let the index builders assert the
  // frozen-index contract (TRIQ_DCHECK_FROZEN) on any mutable build.
  ParallelPassScope parallel_scope(options.driver_order != nullptr);
  return Matcher(rule, instance, options, fn).Run();
}

DriverPlan PlanMatchDriver(const datalog::Rule& rule,
                           const Instance& instance,
                           const MatchOptions& options) {
  std::function<bool(const Match&)> noop = [](const Match&) { return true; };
  return Matcher(rule, instance, options, noop).MakeDriverPlan();
}

std::string ExplainMatchPlan(const datalog::Rule& rule,
                             const Instance& instance,
                             const MatchOptions& options) {
  std::function<bool(const Match&)> noop = [](const Match&) { return true; };
  return Matcher(rule, instance, options, noop).Explain();
}

bool HasMatch(const std::vector<datalog::Atom>& atoms,
              const Instance& instance, const Binding& seed) {
  Rule probe;
  probe.body = atoms;
  for (Atom& a : probe.body) a.negated = false;
  MatchOptions options;
  options.seed = &seed;
  bool found = false;
  // The probe body is positive-only, so MatchBody cannot fail.
  TRIQ_IGNORE_STATUS(MatchBody(probe, instance, options, [&](const Match&) {
    found = true;
    return false;  // stop at first witness
  }));
  return found;
}

namespace {

Rule ProbeRule(const Atom& atom) {
  Rule probe;
  probe.body = {atom};
  probe.body[0].negated = false;
  return probe;
}

MatchOptions ProbeOptions(const Binding* seed, size_t window_end) {
  MatchOptions options;
  options.seed = seed;
  options.atom_end = {window_end};
  return options;
}

}  // namespace

struct AtomProbe::Impl {
  Impl(const Atom& atom, const Instance& instance, const Binding& prototype,
       size_t window_end)
      : rule(ProbeRule(atom)),
        seed(prototype),
        options(ProbeOptions(&seed, window_end)),
        stop_at_first([this](const Match&) {
          found = true;
          return false;  // stop at first witness
        }),
        matcher(rule, instance, options, stop_at_first) {}

  // Declaration order is construction order: the matcher holds
  // references to every member above it.
  Rule rule;
  Binding seed;
  MatchOptions options;
  bool found = false;
  std::function<bool(const Match&)> stop_at_first;
  Matcher matcher;
};

AtomProbe::AtomProbe(const Atom& atom, const Instance& instance,
                     const Binding& prototype, size_t window_end)
    : impl_(std::make_unique<Impl>(atom, instance, prototype, window_end)) {}

AtomProbe::~AtomProbe() = default;

bool AtomProbe::HasMatch(const Binding& seed) {
  impl_->found = false;
  impl_->matcher.Reseed(seed);
  // The probe body is one positive atom, so the run cannot fail.
  TRIQ_IGNORE_STATUS(impl_->matcher.Run());
  return impl_->found;
}

}  // namespace triq::chase
