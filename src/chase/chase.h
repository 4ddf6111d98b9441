#ifndef TRIQ_CHASE_CHASE_H_
#define TRIQ_CHASE_CHASE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/termination.h"
#include "common/status.h"
#include "chase/instance.h"
#include "chase/match.h"
#include "datalog/program.h"
#include "datalog/stratify.h"

namespace triq::chase {

/// Chase configuration.
struct ChaseOptions {
  /// How existential rules fire (Section 3.2 semantics):
  ///  * kRestricted — the standard chase: an ∃-rule fires only if no
  ///    extension of the frontier already satisfies the head in the
  ///    current instance. Terminates on all programs used in the paper
  ///    and computes the same certain answers on Π(D)↓.
  ///  * kOblivious — fires once per homomorphism regardless; matches the
  ///    paper's definition literally but diverges on cyclic ∃-rules
  ///    (bounded below by the depth cap).
  enum class Mode { kRestricted, kOblivious };
  Mode mode = Mode::kRestricted;

  /// Semi-naive (delta-driven) evaluation with strict old/delta/all
  /// partitioning: in the pass whose delta atom is body atom b, atoms
  /// before b read only pre-round facts and atoms after b read facts up
  /// to the round-start snapshot, so every match is enumerated in
  /// exactly one pass — rules with repeated body predicates
  /// (tc(X,Y), tc(Y,Z)) never re-derive the same match once per pass.
  /// Disable for the naive fixpoint, the equivalence tests' oracle.
  bool seminaive = true;

  /// Record rule/body-fact provenance for proof-tree extraction (Fig 1).
  bool track_provenance = false;

  /// Join order and access paths of every body-matching pass (see
  /// JoinStrategy in match.h): kAuto lets the planner choose per rule
  /// (cost-ordered join; leapfrog, merge or posting probes); kBinary is
  /// the written-order binary plan. Both fix the same instance.
  JoinStrategy join_strategy = JoinStrategy::kAuto;

  /// Number of threads the chase may use for its match passes. 1 (the
  /// default) is the unsharded single-threaded executor; N > 1 spawns a
  /// work-stealing pool of N-1 workers (the calling thread participates)
  /// and splits every large-enough pass's depth-0 window into
  /// tuple-index-range shards matched concurrently into thread-local
  /// staging buffers, then merge-committed in shard order.
  ///
  /// Determinism guarantee: the concatenated shard match stream equals
  /// the single-threaded stream (see DriverPlan in match.h), and commits
  /// replay it in that order on the scheduling thread — so the resulting
  /// instance (tuple order, null identities) and every ChaseStats
  /// counter except the diagnostic `sharded_passes` are bit-identical
  /// for every value of num_threads.
  size_t num_threads = 1;

  /// Safety caps. Exceeding max_facts aborts with ResourceExhausted;
  /// exceeding max_null_depth stops deriving deeper nulls and marks
  /// `ChaseStats::truncated` (the ground semantics of terminating
  /// programs is never truncated).
  size_t max_facts = 50'000'000;
  uint32_t max_null_depth = 128;

  /// Optional wall-clock deadline: the chase aborts with
  /// ResourceExhausted once steady_clock passes it. Checked at every
  /// rule pass and every ~1k matches inside a pass, so long joins
  /// cannot overshoot unboundedly. The default (epoch time_point)
  /// disables the check entirely — no clock reads on the hot path.
  std::chrono::steady_clock::time_point deadline{};
};

struct ChaseStats {
  size_t rounds = 0;
  size_t rule_firings = 0;
  size_t facts_derived = 0;
  size_t nulls_created = 0;
  /// Match passes that ran sharded across the thread pool (0 when
  /// num_threads <= 1 or every pass was below the sharding threshold).
  size_t sharded_passes = 0;
  /// Non-empty strata of the minimal stratification this run scheduled.
  size_t strata = 0;
  /// Static termination verdict of the program
  /// (analysis::AnalyzeTermination), reported for ops introspection;
  /// kUnknown does NOT stop the run — the caps above do.
  analysis::Termination termination = analysis::Termination::kUnknown;
  bool truncated = false;
};

/// Checks that `options` describes a runnable configuration: num_threads
/// >= 1, non-zero safety caps, and enum fields holding declared
/// enumerators (not stray casts). Returns InvalidArgument naming the
/// first offending field. RunChase/ResumeChase call this up front
/// instead of silently proceeding.
Status ValidateChaseOptions(const ChaseOptions& options);

/// Runs the stratified chase of Section 3.2: computes S_0,...,S_ℓ by
/// saturating each stratum of ex(Π) in order, then checks the
/// constraints of Π against S_ℓ. On constraint violation returns
/// StatusCode::kInconsistent (the paper's ⊤ answer).
///
/// `instance` is chased in place (it plays the role of the database D
/// and ends as Π(D), up to the caps above).
Status RunChase(const datalog::Program& program, Instance* instance,
                const ChaseOptions& options = {},
                ChaseStats* stats = nullptr);

/// Per-predicate tuple counts recording the prefix of each relation that
/// a prior RunChase/ResumeChase with the same program already saturated.
/// Predicates missing from the map count as 0 (everything is delta).
using SaturatedSizes = std::unordered_map<datalog::PredicateId, size_t>;

/// Incremental continuation of the chase: `instance` was previously
/// chased to a fixpoint of `program` when its relations had the sizes in
/// `saturated`, and facts have been appended since. Re-saturates by
/// running semi-naive passes whose initial delta is exactly the appended
/// suffix of each relation — matches among pre-saturated facts are never
/// re-enumerated — and then re-checks the constraints.
///
/// Soundness requires monotonicity over the saturated prefix: the
/// program must not contain negated body atoms (a new fact can retract a
/// negation-dependent conclusion that is already stored). Callers with
/// negation must re-chase from scratch; the engine layer does exactly
/// that. With `options.seminaive` false the snapshot is ignored and the
/// naive fixpoint re-runs in full (correct, just not incremental).
Status ResumeChase(const datalog::Program& program, Instance* instance,
                   const SaturatedSizes& saturated,
                   const ChaseOptions& options = {},
                   ChaseStats* stats = nullptr);

/// Renders the join plan of every rule of `program` (constraints
/// included) against the current `instance`, one block per rule: the
/// rule itself, then ExplainMatchPlan's order / access-path /
/// estimated-cardinality lines. The plans shown are the ones a full
/// (round-0) evaluation pass would execute with `options`'s join
/// strategy — delta passes re-plan per window, so per-round plans can
/// differ; this is the `--explain` / EXPLAIN surface, not a trace.
/// Builds lazy sorted statistics as a side effect (same as planning).
std::string ExplainProgramPlans(const datalog::Program& program,
                                const Instance& instance,
                                const ChaseOptions& options = {});

}  // namespace triq::chase

#endif  // TRIQ_CHASE_CHASE_H_
