#ifndef TRIQ_CHASE_MATCH_H_
#define TRIQ_CHASE_MATCH_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chase/instance.h"
#include "common/status.h"
#include "datalog/rule.h"

namespace triq::chase {

/// A partial substitution V → U ∪ B. Small rules dominate, so a flat
/// vector with linear lookup beats a hash map here.
class Binding {
 public:
  Term Lookup(Term variable) const {
    for (const auto& [var, val] : entries_) {
      if (var == variable) return val;
    }
    return Term();  // "unbound" sentinel: default Term (constant id 0)
  }
  bool IsBound(Term variable) const {
    return Lookup(variable) != Term();
  }
  void Bind(Term variable, Term value) { entries_.emplace_back(variable, value); }
  void PopTo(size_t size) { entries_.resize(size); }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<Term, Term>>& entries() const {
    return entries_;
  }

  /// Replaces the contents with `n` entries from `data`, reusing the
  /// existing capacity (the chase's staging drain refills one scratch
  /// Binding per match instead of allocating).
  void Assign(const std::pair<Term, Term>* data, size_t n) {
    entries_.assign(data, data + n);
  }

  /// Applies the binding to a term: bound variables are replaced,
  /// everything else passes through.
  Term Apply(Term t) const {
    if (!t.IsVariable()) return t;
    Term v = Lookup(t);
    return v == Term() ? t : v;
  }

 private:
  std::vector<std::pair<Term, Term>> entries_;
};

/// Result of a successful body match: the homomorphism and, for each
/// positive body atom (in body order), the matched stored fact.
struct Match {
  const Binding* binding;
  const std::vector<FactRef>* positive_facts;
};

/// Sentinel for "no upper bound" in the tuple-index windows below.
inline constexpr size_t kNoTupleLimit = static_cast<size_t>(-1);

/// Join plan selection for a body-matching pass. Both strategies
/// enumerate the same match set; they differ in atom order and access
/// paths, and so in work and enumeration order.
///
///  * kAuto — the planner picks: a cost-ordered join (most selective
///    atom next, by Relation::EstimatedDistinct); a leapfrog-triejoin
///    residual when ≥3 positive atoms leave ≥2 residual atoms sharing a
///    variable the driver does not bind (triangle/clique-shaped joins,
///    where binary plans churn through intermediate results no output
///    ever needs) — the depth-0 driver still enumerates as usual, and
///    the remaining atoms are joined variable at a time by galloping
///    sorted lexicographic permutations (Relation::LexPerm); otherwise a
///    depth-1 merge cursor when the first two atoms share a variable and
///    the driver window (at least 32 tuples) amortizes sorting it;
///    posting probes as the fallback.
///  * kBinary — the binary plan: atoms in written order with the delta
///    atom pinned first, a depth-1 merge cursor wherever the first two
///    atoms share a variable (regardless of window size), posting probes
///    below, never leapfrog. Kept as the naive-oracle executor of the
///    equivalence tests and the `/binary` benchmark companion.
/// Either way the merge cursor needs a non-empty second relation, and
/// an atom whose every position is bound is one dedup-table lookup.
enum class JoinStrategy : uint8_t { kAuto, kBinary };

/// Options for a body-matching pass.
///
/// Window contract (semi-naive old/delta/all partitioning): each
/// positive body atom scans a half-open window of tuple indices in its
/// predicate's relation.
///  * The atom at `delta_body_index` scans [delta_begin, delta_end).
///  * Every other positive atom `b` scans [0, atom_end[b]) when
///    `atom_end` is non-empty, and the whole relation otherwise.
/// The chase points atoms before the delta atom at the pre-round
/// snapshot ("old") and atoms after it at the round-start snapshot
/// ("all"), so a match joining several delta facts is enumerated in
/// exactly one pass.
struct MatchOptions {
  /// If >= 0, the positive body atom at this body index is the delta
  /// atom and must match a fact with tuple index in
  /// [delta_begin, delta_end).
  int delta_body_index = -1;
  size_t delta_begin = 0;
  size_t delta_end = kNoTupleLimit;
  /// Optional per-body-atom exclusive upper bounds on tuple indices
  /// (body order, negated atoms ignored); empty = no bounds.
  std::vector<size_t> atom_end;
  /// Pre-seeded bindings (used for head-satisfaction checks where the
  /// frontier is already fixed).
  const Binding* seed = nullptr;
  /// Join order and access paths (see JoinStrategy). Composes freely
  /// with the window contract above: merge-joined and leapfrog atoms
  /// still respect their delta / atom_end windows.
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  /// Deadline for the whole pass (epoch = disabled). Checked inside the
  /// matcher's own inner loops — in particular the leapfrog gallop,
  /// which can align cursors for a long time without emitting a match,
  /// so a callback-side check alone would never fire. Trips as
  /// ResourceExhausted.
  std::chrono::steady_clock::time_point deadline{};
};

using MatchFn = std::function<bool(const Match&)>;

class JoinRun;  // the executor's per-run state (match.cc)

/// The join plan of one body-matching pass, built once and then only
/// read. Per depth it records the atom, its window and one access path:
/// scan, sorted scan (depth 0, value order of one column), postings,
/// find-index (every position bound), merge cursor (depth 1, fed by the
/// sorted scan) or leapfrog (the residual below the driver, joined
/// variable at a time). Facts known before the pass starts are settled
/// here rather than at run time: the kAuto merge threshold, an empty
/// merge-cursor relation, and the depth-0 visit order itself. The
/// executor, the shard scheduler, the index freezer and EXPLAIN all
/// read these decisions; none re-derives them.
///
/// Sharding contract: running the plan once per contiguous slice of
/// [0, driver_size()) and concatenating the match streams in slice
/// order reproduces the match stream of the whole run exactly — same
/// matches, same order. Runs never mutate the plan, so any number of
/// them may share one plan concurrently, once FreezeIndexes has synced
/// what they read.
///
/// A conjunction with a positive atom whose window is empty, or whose
/// relation is absent, cannot match. Its plan still records the order
/// and access paths (EXPLAIN is unchanged) but builds no index — no
/// lex permutation, sorted permutation or sorted window — and its
/// depth-0 visit order is empty, so runs (AtomProbe's and HasMatch's
/// too) find nothing and read nothing.
///
/// The rule and the instance must outlive the plan, and the instance
/// must not change while a run is in progress. Building the plan may
/// build lazy sorted indexes; do it on the scheduling thread, before
/// freezing and fan-out.
class JoinPlan {
 public:
  JoinPlan(const datalog::Rule& rule, const Instance& instance,
           const MatchOptions& options);
  ~JoinPlan();

  /// Length of the depth-0 visit order: the driver window in tuple-index
  /// or value order, or the driver's posting intersection — already
  /// window-clamped. 0 also when a seeded plan probes its first atom:
  /// those candidates depend on the seed's values, so they are read per
  /// run and such a plan only runs whole.
  size_t driver_size() const;

  /// Enumerates all homomorphisms h with h(body+) ⊆ instance and
  /// h(body−) ∩ instance = ∅ whose depth-0 fact is one of the visit
  /// order's entries [begin, end), invoking `fn` per match. `fn`
  /// returning false stops the run. Returns InvalidArgument when a
  /// negated atom still has an unbound variable once the positive body
  /// is matched (an unsafe rule that bypassed Program validation)
  /// instead of silently dropping answers.
  Status Run(size_t begin, size_t end, const MatchFn& fn) const;

  /// Syncs every lazy index a run reads below depth 0 — the posting
  /// probes' sorted permutations; the merge cursor's and the leapfrog
  /// residual's indexes are synced when the plan is built — so that
  /// runs over the unchanged instance only read immutable state
  /// (Relation::FreezeIndex). Deliberately not every position of every
  /// body relation: on linear rules like tc(X,Z) :- edge(X,Y), tc(Y,Z)
  /// that would be an O(|tc|) merge per pass for indexes only the
  /// driver's delta window ever needed.
  void FreezeIndexes() const;

  /// Renders the plan: the strategy, then one line per positive body
  /// atom in join order with its access path and the estimate the
  /// planner ranked it by (per intermediate binding, from
  /// Relation::EstimatedDistinct) over its window.
  std::string Explain() const;

 private:
  friend class JoinRun;
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

/// Plans one pass and runs it whole.
Status MatchBody(const datalog::Rule& rule, const Instance& instance,
                 const MatchOptions& options, const MatchFn& fn);

/// Convenience: true iff the conjunction of (positive) `atoms` has at
/// least one homomorphism into `instance` extending `seed`. Plans the
/// join on every call; the restricted chase uses it only for
/// multi-atom existential heads (single-atom heads go through
/// AtomProbe).
bool HasMatch(const std::vector<datalog::Atom>& atoms,
              const Instance& instance, const Binding& seed);

/// HasMatch for one positive atom: one plan, and one run re-seeded per
/// call. True iff some fact with tuple index below `window_end`
/// matches `atom` extending `seed`. Every seed must bind the same
/// variables in the same order as the `prototype` the probe was planned
/// with. The window lets the probe ignore facts appended after
/// construction, and its posting reads stay on the permutation prefix
/// synced for that window (Relation::Postings), so a growing relation
/// is not re-indexed per call. The restricted chase builds one per pass
/// of a single-head-atom existential rule.
class AtomProbe {
 public:
  AtomProbe(const datalog::Atom& atom, const Instance& instance,
            const Binding& prototype, size_t window_end);
  ~AtomProbe();

  bool HasMatch(const Binding& seed);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace triq::chase

#endif  // TRIQ_CHASE_MATCH_H_
