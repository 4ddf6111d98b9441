#ifndef TRIQ_CHASE_MATCH_H_
#define TRIQ_CHASE_MATCH_H_

#include <chrono>
#include <cstddef>
#include <functional>
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
///    the driver window is large enough to amortize sorting it; posting
///    probes as the fallback.
///  * kBinary — the binary plan: atoms in written order with the delta
///    atom pinned first, a depth-1 merge cursor wherever the first two
///    atoms share a variable (regardless of window size), posting probes
///    below, never leapfrog. Kept as the naive-oracle executor of the
///    equivalence tests and the `/binary` benchmark companion.
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

  /// Depth-0 shard injection (the parallel chase scheduler, chase.cc).
  /// When `driver_order` is non-null, the join's first atom enumerates
  /// exactly driver_order[0 .. driver_order_size) — tuple indices of its
  /// relation, typically one contiguous slice of PlanMatchDriver's
  /// `order` — instead of choosing its own depth-0 access path.
  /// `driver_sorted` marks the order as value order of the planned
  /// driver column (SortWindow order), which re-enables the depth-1
  /// merge cursor exactly as in an unsharded run. `driver_body_index`
  /// pins the body atom the shard was planned for; MatchBody returns
  /// Internal on a plan mismatch instead of enumerating the wrong atom.
  /// Shard matchers never mutate the instance's lazy indexes, so any
  /// number of them may run concurrently over an instance whose read
  /// relations were frozen (Relation::FreezeIndexes).
  const uint32_t* driver_order = nullptr;
  size_t driver_order_size = 0;
  bool driver_sorted = false;
  int driver_body_index = -1;
};

/// The depth-0 enumeration of a MatchBody pass, exposed so the parallel
/// chase can split it into shards: which body atom the join plan
/// enumerates first, and the exact tuple visit order a single-threaded
/// MatchBody with the same options would use.
///
/// Sharding contract: running MatchBody once per contiguous slice of
/// `order` (MatchOptions::driver_* pointing at the slice) and
/// concatenating the match streams in slice order reproduces the
/// unsharded match stream exactly — same matches, same order.
struct DriverPlan {
  /// Body index of the depth-0 atom; -1 when the body has no positive
  /// atoms (fall back to an unsharded MatchBody).
  int body_index = -1;
  /// True when `order` is in value order of the driver column (the
  /// merge-join driver); false for ascending tuple-index order.
  bool sorted = false;
  /// Depth-0 tuple visit order, already window-clamped. May be a
  /// superset of the matching tuples (shards re-check bound positions
  /// by unification); empty when the pass can have no matches.
  std::vector<uint32_t> order;
  /// The (predicate, position) pairs whose sorted permutation indexes
  /// the planned join may read below depth 0 (posting probes on
  /// statically-bound positions, plus the depth-1 merge cursor). The
  /// scheduler must freeze exactly these (Relation::FreezeIndex) before
  /// concurrent fan-out; everything else the matchers touch is
  /// insert-stable storage. Deliberately NOT every position of every
  /// body relation: blanket freezing would eagerly build and maintain
  /// permutations the join never reads — on linear rules like
  /// tc(X,Z) :- edge(X,Y), tc(Y,Z) that is an O(|tc|) merge per pass
  /// for indexes only the driver's delta window ever needed.
  std::vector<std::pair<datalog::PredicateId, uint32_t>> probe_index_pairs;
  /// The multi-position lexicographic permutations a leapfrog residual
  /// join walks below depth 0 (Relation::LexPerm keys). The scheduler
  /// must freeze exactly these (Relation::FreezeLex) before concurrent
  /// fan-out; single-position leapfrog keys alias the sorted
  /// permutation and appear in probe_index_pairs instead. Empty unless
  /// the plan engages the leapfrog operator.
  std::vector<std::pair<datalog::PredicateId, std::vector<uint32_t>>>
      lex_index_pairs;
};

/// Plans the depth-0 enumeration for (rule, instance, options). Runs on
/// the scheduling thread and may build lazy sorted indexes; call before
/// freezing and fan-out.
DriverPlan PlanMatchDriver(const datalog::Rule& rule,
                           const Instance& instance,
                           const MatchOptions& options);

/// Enumerates all homomorphisms h with h(body+) ⊆ instance and
/// h(body−) ∩ instance = ∅, invoking `fn` per match. `fn` returning
/// false stops the enumeration. Atoms are joined in the order and with
/// the access paths `options.join_strategy` plans. Returns
/// InvalidArgument when a negated atom still has an unbound variable
/// once the positive body is matched (an unsafe rule that bypassed
/// Program validation) instead of silently dropping answers.
Status MatchBody(const datalog::Rule& rule, const Instance& instance,
                 const MatchOptions& options,
                 const std::function<bool(const Match&)>& fn);

/// Convenience: true iff the conjunction of (positive) `atoms` has at
/// least one homomorphism into `instance` extending `seed`.
bool HasMatch(const std::vector<datalog::Atom>& atoms,
              const Instance& instance, const Binding& seed);

/// Renders the join plan MatchBody would execute for (rule, instance,
/// options): one line per positive body atom in join order with its
/// access path and estimated cardinality per intermediate binding, plus
/// the chosen strategy. Reads the same statistics the planner reads
/// (Relation::EstimatedDistinct), so the output reflects the actual
/// decision, not a re-derivation.
std::string ExplainMatchPlan(const datalog::Rule& rule,
                             const Instance& instance,
                             const MatchOptions& options);

}  // namespace triq::chase

#endif  // TRIQ_CHASE_MATCH_H_
