#include "chase/chase.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace triq::chase {

namespace {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Stratification;

/// Key identifying one rule firing (rule index + full body image), used
/// to avoid refiring existential rules in oblivious mode.
struct TriggerKey {
  size_t rule_index;
  Tuple image;

  friend bool operator==(const TriggerKey& a, const TriggerKey& b) {
    return a.rule_index == b.rule_index && a.image == b.image;
  }
};

struct TriggerKeyHash {
  size_t operator()(const TriggerKey& k) const {
    size_t h = TupleHash()(k.image);
    return h ^ (k.rule_index * 0x9e3779b97f4a7c15ULL);
  }
};

class ChaseRun {
 public:
  ChaseRun(const Program& program, Instance* instance,
           const ChaseOptions& options, ChaseStats* stats,
           const SaturatedSizes* resume = nullptr)
      : program_(program),
        instance_(instance),
        options_(options),
        stats_(stats),
        resume_(resume) {}

  Status Run() {
    const uint64_t sorted_before = TuplesSortedOnThisThread();
    Status status = RunStrata();
    if (stats_ != nullptr) {
      stats_->tuples_sorted = TuplesSortedOnThisThread() - sorted_before;
    }
    return status;
  }

 private:
  Status RunStrata() {
    total_facts_ = instance_->TotalFacts();
    deadline_set_ =
        options_.deadline != std::chrono::steady_clock::time_point{};
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<common::ThreadPool>(options_.num_threads - 1);
    }
    TRIQ_ASSIGN_OR_RETURN(Stratification strat,
                          datalog::Stratify(program_.WithoutConstraints()));
    if (stats_ != nullptr) {
      stats_->termination =
          analysis::AnalyzeTermination(program_).termination;
    }
    for (int s = 0; s < strat.num_strata; ++s) {
      std::vector<size_t> rule_indices = strat.RulesInStratum(program_, s);
      if (rule_indices.empty()) continue;
      if (stats_ != nullptr) ++stats_->strata;
      TRIQ_RETURN_IF_ERROR(SaturateStratum(rule_indices));
    }
    return CheckConstraints();
  }

  using SizeSnapshot = std::unordered_map<PredicateId, size_t>;

  /// Exclusive end offsets of one staged match in the flat general-path
  /// buffers (homomorphism entries + matched body facts).
  struct StagedEnd {
    uint32_t entries;
    uint32_t facts;
  };

  /// Sharding thresholds: a pass fans out only when its depth-0 visit
  /// order has at least two shards of kMinDriverPerShard tuples;
  /// kShardsPerThread-fold oversubscription lets the work-stealing pool
  /// rebalance shards whose join fan-out is skewed.
  static constexpr size_t kMinDriverPerShard = 64;
  static constexpr size_t kShardsPerThread = 4;

  // Fills `mo.atom_end` with the old/delta/all windows for the pass
  // whose delta atom is body index `delta`: atoms before it read
  // [0, prev), atoms after it read [0, cur). `delta < 0` (round 0) caps
  // every positive atom at `cur` so facts derived this round surface
  // only in the next round's delta window.
  void FillAtomEnds(const Rule& rule, int delta, const SizeSnapshot& prev,
                    const SizeSnapshot& cur, MatchOptions* mo) const {
    mo->atom_end.assign(rule.body.size(), kNoTupleLimit);
    for (size_t j = 0; j < rule.body.size(); ++j) {
      const Atom& atom = rule.body[j];
      if (atom.negated) continue;  // lower stratum: static this stratum
      if (static_cast<int>(j) == delta) continue;
      const SizeSnapshot& cap =
          delta >= 0 && static_cast<int>(j) < delta ? prev : cur;
      mo->atom_end[j] = ValueOr(cap, atom.predicate, 0);
    }
  }

  Status SaturateStratum(const std::vector<size_t>& rule_indices) {
    SizeSnapshot prev_start;
    bool changed;
    if (resume_ != nullptr && options_.seminaive) {
      // Incremental resume: the saturated prefix plays the role of the
      // previous round's snapshot, so the first semi-naive round's
      // deltas are exactly the facts appended since the prior fixpoint
      // (plus anything lower strata derived during this resume).
      // Matches entirely inside the prefix are never re-enumerated.
      prev_start = Snapshot();
      for (auto& [pred, size] : prev_start) {
        size = std::min(size, ValueOr(*resume_, pred, 0));
      }
      changed = true;
    } else {
      // Round 0: full evaluation of every rule. Semi-naive caps every
      // atom at the round-start sizes so round 0 enumerates each
      // database match exactly once; anything derived here is picked up
      // as round 1's delta.
      prev_start = Snapshot();
      size_t before = instance_->TotalFacts();
      for (size_t r : rule_indices) {
        MatchOptions mo;
        if (options_.seminaive) {
          FillAtomEnds(program_.rules()[r], /*delta=*/-1, prev_start,
                       prev_start, &mo);
        }
        TRIQ_RETURN_IF_ERROR(ApplyRule(r, mo));
      }
      if (stats_ != nullptr) ++stats_->rounds;
      changed = instance_->TotalFacts() != before;
    }

    while (changed) {
      // Fault-injection point for crash/durability tests: an abort
      // between rounds must surface as an error so the caller (the
      // Engine) publishes nothing and the prior snapshot keeps serving.
      TRIQ_FAILPOINT_RETURN(
          "chase.round.abort",
          Status::Internal("failpoint chase.round.abort: aborted mid-chase"));
      SizeSnapshot cur_start = Snapshot();
      size_t round_before = instance_->TotalFacts();
      for (size_t r : rule_indices) {
        const Rule& rule = program_.rules()[r];
        if (options_.seminaive) {
          // One pass per positive body atom whose predicate gained facts
          // in the previous round, restricted to those delta facts.
          for (size_t b = 0; b < rule.body.size(); ++b) {
            const Atom& atom = rule.body[b];
            if (atom.negated) continue;
            size_t begin = ValueOr(prev_start, atom.predicate, 0);
            size_t end = ValueOr(cur_start, atom.predicate, 0);
            if (begin >= end) continue;  // no new facts for this atom
            MatchOptions mo;
            mo.delta_body_index = static_cast<int>(b);
            mo.delta_begin = begin;
            mo.delta_end = end;
            FillAtomEnds(rule, static_cast<int>(b), prev_start, cur_start,
                         &mo);
            TRIQ_RETURN_IF_ERROR(ApplyRule(r, mo));
          }
        } else {
          TRIQ_RETURN_IF_ERROR(ApplyRule(r, MatchOptions{}));
        }
      }
      if (stats_ != nullptr) ++stats_->rounds;
      changed = instance_->TotalFacts() != round_before;
      prev_start = std::move(cur_start);
    }
    return Status::OK();
  }

  // Includes the overlay base's relations: round-0 partitioned atom
  // windows must cover the base facts, not cap them at zero.
  SizeSnapshot Snapshot() const { return instance_->RelationSizes(); }

  bool DeadlineExpired() const {
    return std::chrono::steady_clock::now() >= options_.deadline;
  }

  static Status DeadlineError() {
    return Status::ResourceExhausted("chase exceeded the deadline");
  }

  static size_t ValueOr(const SizeSnapshot& map, PredicateId key,
                        size_t fallback) {
    auto it = map.find(key);
    return it == map.end() ? fallback : it->second;
  }

  /// One staging buffer set: everything a match produces is appended
  /// here and committed after the pass. A pass stages into the first
  /// num_shards entries of stages_ — one unless the pass is sharded, in
  /// which case each shard fills its own thread-locally and the commit
  /// replays them in shard order.
  struct ShardStage {
    Status status = Status::OK();
    size_t matches = 0;
    std::vector<Term> tuples;  // fast path: materialized head tuples
    // Batch path (sharded single-head fast rules): per-tuple dedup
    // hashes, precomputed off the commit thread.
    std::vector<uint32_t> hashes;
    // General path: flat homomorphism + matched-fact staging.
    std::vector<std::pair<Term, Term>> entries;
    std::vector<FactRef> facts;
    std::vector<StagedEnd> ends;
  };

  static void ResetStage(ShardStage* stage) {
    stage->status = Status::OK();
    stage->matches = 0;
    stage->tuples.clear();
    stage->hashes.clear();
    stage->entries.clear();
    stage->facts.clear();
    stage->ends.clear();
  }

  /// Appends one match's staging to `stage`. Fast path (plain Datalog,
  /// no provenance): the materialized head tuples themselves —
  /// head-arity terms per match, applied while the binding is hot —
  /// plus their dedup hashes when `hash_arity` >= 0 (the batch-commit
  /// path). General path: the full homomorphism and the matched body
  /// facts in flat buffers, one offset record per match.
  static void StageMatch(const Rule& rule, const Match& match, bool fast,
                         int hash_arity, ShardStage* stage) {
    ++stage->matches;
    if (fast) {
      for (const Atom& head : rule.head) {
        for (Term t : head.args) {
          stage->tuples.push_back(match.binding->Apply(t));
        }
      }
      if (hash_arity >= 0) {
        stage->hashes.push_back(Relation::Hash32(
            stage->tuples.data() + stage->tuples.size() - hash_arity,
            static_cast<uint32_t>(hash_arity)));
      }
    } else {
      stage->entries.insert(stage->entries.end(),
                            match.binding->entries().begin(),
                            match.binding->entries().end());
      stage->facts.insert(stage->facts.end(),
                          match.positive_facts->begin(),
                          match.positive_facts->end());
      stage->ends.push_back({static_cast<uint32_t>(stage->entries.size()),
                             static_cast<uint32_t>(stage->facts.size())});
    }
  }

  /// One match pass of one rule: match (sharded across the pool when
  /// the pass is large enough), then commit in the single-threaded
  /// match order.
  Status ApplyRule(size_t rule_index, const MatchOptions& match_options) {
    const Rule& rule = program_.rules()[rule_index];
    if (rule.IsConstraint()) return Status::OK();
    if (deadline_set_ && DeadlineExpired()) return DeadlineError();
    std::vector<Term> existentials = rule.ExistentialVariables();

    // Materialize the matches before firing: a rule may write into a
    // relation its own body reads (e.g. the triple -> triple rules of
    // Section 2), and inserting during the index scan would invalidate
    // the matcher's column and permutation views.
    MatchOptions effective = match_options;
    effective.join_strategy = options_.join_strategy;
    // Let the matcher's inner loops (notably the leapfrog gallop, which
    // can run long without emitting a single match) trip the deadline
    // themselves instead of relying on the every-1024-matches callback.
    if (deadline_set_) effective.deadline = options_.deadline;

    const bool fast = existentials.empty() && !options_.track_provenance;
    const JoinPlan plan(rule, *instance_, effective);
    const size_t num_shards = pool_ == nullptr ? 1 : PlanShards(plan);
    // Sharded single-head fast rules take the fully parallel commit:
    // workers precompute dedup hashes and BatchInserter runs the probe
    // phases across the pool.
    const bool batch = num_shards > 1 && fast && rule.head.size() == 1;
    const int hash_arity =
        batch ? static_cast<int>(rule.head[0].args.size()) : -1;
    // Members, reset rather than reconstructed, so buffer capacity
    // persists across passes.
    if (stages_.size() < num_shards) stages_.resize(num_shards);
    const size_t total = plan.driver_size();
    if (num_shards == 1) {
      MatchInto(rule, plan, 0, total, fast, hash_arity, &stages_[0]);
    } else {
      pool_->ParallelFor(num_shards, [&](size_t s) {
        // Every index the plan reads was frozen by PlanShards: let the
        // index builders assert the frozen-index contract
        // (TRIQ_DCHECK_FROZEN) on any mutable build.
        ParallelPassScope parallel_scope(true);
        MatchInto(rule, plan, total * s / num_shards,
                  total * (s + 1) / num_shards, fast, hash_arity,
                  &stages_[s]);
      });
    }

    // stages_ may be longer than this pass's shard count: only the
    // first num_shards entries were reset and filled.
    size_t staged_matches = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      TRIQ_RETURN_IF_ERROR(stages_[s].status);
      staged_matches += stages_[s].matches;
    }
    if (num_shards > 1 && stats_ != nullptr) ++stats_->sharded_passes;
    if (fast && stats_ != nullptr) stats_->rule_firings += staged_matches;

    // Deterministic commit, shard order = single-threaded order.
    if (batch && total_facts_ + staged_matches <= options_.max_facts) {
      return CommitBatch(rule.head[0], static_cast<uint32_t>(hash_arity),
                         num_shards);
    }
    if (!existentials.empty() &&
        options_.mode == ChaseOptions::Mode::kRestricted &&
        rule.head.size() == 1 && staged_matches > 0) {
      BeginHeadCheck(rule, existentials);
    }
    Status status = Status::OK();
    for (size_t s = 0; s < num_shards && status.ok(); ++s) {
      const ShardStage& stage = stages_[s];
      status = fast ? DrainFastTuples(rule, stage.tuples.data(),
                                      stage.matches)
                    : DrainStagedMatches(rule_index, rule, existentials,
                                         stage);
    }
    head_check_.reset();  // frees the drain-local key set
    return status;
  }

  /// Restricted-chase head check of one drain (the commit of one pass)
  /// of a single-head-atom existential rule. A trigger's head is
  /// satisfied iff a fact extending its frontier exists either
  ///  * among the facts present before the drain — `probe`, planned
  ///    once and windowed at the head relation's size when the drain
  ///    started, so its posting reads sync each permutation at most
  ///    once per drain instead of once per new null; or
  ///  * among the facts this drain created. Only this drain inserts
  ///    into the head relation while it runs, and each fact it creates
  ///    is the head atom with fresh nulls at the existential positions,
  ///    so it satisfies a later trigger exactly when the two agree on
  ///    the other positions (frontier values and constants): `created`
  ///    holds those keys.
  /// Same verdict as HasMatch over the live instance, so triggers, null
  /// allocation order and the closure are unchanged.
  struct HeadCheck {
    std::vector<Term> frontier;        // rule.FrontierVariables()
    std::vector<Term> key_args;        // head args not existential
    std::unique_ptr<AtomProbe> probe;  // planned on the first trigger
    size_t window_end = 0;             // head relation size at drain start
    std::unordered_set<Tuple, TupleHash> created;
    Tuple key;     // scratch: the current trigger's key
    Binding seed;  // scratch: the current trigger's frontier
  };

  void BeginHeadCheck(const Rule& rule, const std::vector<Term>& existentials) {
    head_check_ = std::make_unique<HeadCheck>();
    head_check_->frontier = rule.FrontierVariables();
    for (Term t : rule.head[0].args) {
      if (std::find(existentials.begin(), existentials.end(), t) ==
          existentials.end()) {
        head_check_->key_args.push_back(t);
      }
    }
    const Relation* rel = instance_->Find(rule.head[0].predicate);
    head_check_->window_end = rel == nullptr ? 0 : rel->size();
  }

  /// Whether `binding`'s trigger of `rule` is already satisfied (see
  /// HeadCheck). Multi-atom heads re-plan a HasMatch per trigger.
  bool HeadSatisfied(const Rule& rule, const Binding& binding) {
    if (head_check_ == nullptr) {
      Binding frontier;
      for (Term v : rule.FrontierVariables()) {
        frontier.Bind(v, binding.Lookup(v));
      }
      return HasMatch(rule.head, *instance_, frontier);
    }
    HeadCheck& check = *head_check_;
    check.key.clear();
    for (Term t : check.key_args) check.key.push_back(binding.Apply(t));
    if (check.created.count(check.key) > 0) return true;
    check.seed.PopTo(0);
    for (Term v : check.frontier) check.seed.Bind(v, binding.Lookup(v));
    if (check.probe == nullptr) {
      check.probe = std::make_unique<AtomProbe>(rule.head[0], *instance_,
                                                check.seed, check.window_end);
    }
    return check.probe->HasMatch(check.seed);
  }

  /// Splits a pooled pass into shards: contiguous slices of the plan's
  /// depth-0 order, whose concatenated match streams equal the unsharded
  /// stream (the JoinPlan sharding contract). Returns 1 when the pass is
  /// too small to shard; otherwise freezes exactly the lazy indexes the
  /// plan reads, so from there to the end of the fan-out matching is
  /// read-only on the instance.
  size_t PlanShards(const JoinPlan& plan) {
    size_t max_shards = (pool_->num_workers() + 1) * kShardsPerThread;
    size_t num_shards =
        std::min(max_shards, plan.driver_size() / kMinDriverPerShard);
    if (num_shards < 2) return 1;
    plan.FreezeIndexes();
    return num_shards;
  }

  /// Matches the slice [begin, end) of the plan's depth-0 order (one
  /// shard, or the whole unsharded pass) into `stage`: the one
  /// match-and-stage callback, polling the deadline every 1024 matches.
  /// Safe to run concurrently for distinct stages once PlanShards has
  /// frozen the probed indexes.
  void MatchInto(const Rule& rule, const JoinPlan& plan, size_t begin,
                 size_t end, bool fast, int hash_arity,
                 ShardStage* stage) const {
    ResetStage(stage);
    Status deadline_status = Status::OK();
    size_t since_check = 0;
    stage->status = plan.Run(begin, end, [&](const Match& match) {
      if (deadline_set_ && (++since_check & 1023u) == 0 &&
          DeadlineExpired()) {
        deadline_status = DeadlineError();
        return false;
      }
      StageMatch(rule, match, fast, hash_arity, stage);
      return true;
    });
    // An early callback stop makes the run return OK; keep the deadline
    // error instead.
    if (stage->status.ok()) stage->status = deadline_status;
  }

  /// Parallel merge-commit of a single-head pass's staged tuples: the
  /// hash-partitioned dedup probes fan out over the pool; the ordered
  /// append (which fixes the tuple indexes to exactly the sequential
  /// ones) stays on this thread. Only called when even an all-new batch
  /// cannot exceed max_facts, so the cap needs no per-tuple check.
  Status CommitBatch(const Atom& head, uint32_t head_arity,
                     size_t num_shards) {
    Relation& rel = instance_->GetOrCreate(head.predicate, head_arity);
    if (rel.arity() != head_arity) {
      return Status::InvalidArgument(
          "fact for predicate " + instance_->dict().Text(head.predicate) +
          " has width " + std::to_string(head_arity) +
          " but its relation has arity " + std::to_string(rel.arity()));
    }
    BatchInserter batch(&rel);
    for (size_t s = 0; s < num_shards; ++s) {
      batch.AddShard(stages_[s].tuples.data(), stages_[s].hashes.data(),
                     static_cast<uint32_t>(stages_[s].matches));
    }
    // The pool also covers the rehash at capacity doublings: Prepare
    // hands it to Relation::GrowSlots, which counting-sorts the live
    // tuple indexes by dedup partition and reinserts the 16 disjoint
    // slot regions in parallel (bit-identical layout to sequential).
    batch.Prepare(pool_.get());
    pool_->ParallelFor(Relation::kDedupPartitions,
                       [&](size_t p) { batch.ScanPartition(p); });
    uint32_t winners = batch.CommitWinners();
    pool_->ParallelFor(Relation::kDedupPartitions,
                       [&](size_t p) { batch.FinalizeSlots(p); });
    total_facts_ += winners;
    if (stats_ != nullptr) stats_->facts_derived += winners;
    return Status::OK();
  }

  /// Inserts `matches` staged head-tuple groups laid out back-to-back
  /// at `next` (the fast-path commit of one stage).
  Status DrainFastTuples(const Rule& rule, const Term* next,
                         size_t matches) {
    for (size_t m = 0; m < matches; ++m) {
      for (const Atom& head : rule.head) {
        uint32_t arity = static_cast<uint32_t>(head.args.size());
        TRIQ_ASSIGN_OR_RETURN(
            bool inserted,
            instance_->AddFactChecked(head.predicate,
                                      TupleView(next, arity)));
        next += arity;
        if (inserted) {
          ++total_facts_;
          if (stats_ != nullptr) ++stats_->facts_derived;
        }
      }
      if (total_facts_ > options_.max_facts) {
        return Status::ResourceExhausted(
            "chase exceeded max_facts = " +
            std::to_string(options_.max_facts));
      }
    }
    return Status::OK();
  }

  /// Fires every staged match of the general path in staging order (the
  /// general-path commit of one stage).
  Status DrainStagedMatches(size_t rule_index, const Rule& rule,
                            const std::vector<Term>& existentials,
                            const ShardStage& stage) {
    size_t entry_begin = 0;
    size_t fact_begin = 0;
    for (const StagedEnd& staged : stage.ends) {
      scratch_binding_.Assign(stage.entries.data() + entry_begin,
                              staged.entries - entry_begin);
      TRIQ_RETURN_IF_ERROR(Fire(rule_index, rule, existentials,
                                scratch_binding_,
                                stage.facts.data() + fact_begin,
                                staged.facts - fact_begin));
      entry_begin = staged.entries;
      fact_begin = staged.facts;
    }
    return Status::OK();
  }

  Status Fire(size_t rule_index, const Rule& rule,
              const std::vector<Term>& existentials, const Binding& binding,
              const FactRef* positive_facts, size_t num_positive_facts) {
    if (stats_ != nullptr) ++stats_->rule_firings;

    Binding head_binding = binding;
    if (!existentials.empty()) {
      if (options_.mode == ChaseOptions::Mode::kOblivious) {
        if (!RecordTrigger(rule_index, rule, binding)) {
          return Status::OK();  // already fired for this homomorphism
        }
      } else if (HeadSatisfied(rule, binding)) {
        // Restricted chase: some extension of the frontier already
        // satisfies the whole head.
        return Status::OK();
      }
      // Null-depth cap: a fresh null is one level deeper than the
      // deepest null among the matched body terms.
      uint32_t depth = 0;
      for (const auto& [var, val] : binding.entries()) {
        if (val.IsNull()) {
          depth = std::max(depth, instance_->NullDepth(val));
        }
      }
      if (depth + 1 > options_.max_null_depth) {
        if (stats_ != nullptr) stats_->truncated = true;
        return Status::OK();
      }
      for (Term v : existentials) {
        head_binding.Bind(v, instance_->AllocateNull(depth + 1));
        if (stats_ != nullptr) ++stats_->nulls_created;
      }
      if (head_check_ != nullptr) {
        head_check_->created.insert(head_check_->key);
      }
    }

    for (const Atom& head : rule.head) {
      scratch_tuple_.clear();
      for (Term t : head.args) scratch_tuple_.push_back(head_binding.Apply(t));
      FactRef ref;
      TRIQ_ASSIGN_OR_RETURN(
          bool inserted,
          instance_->AddFactChecked(head.predicate, scratch_tuple_, &ref));
      if (inserted) {
        ++total_facts_;
        if (stats_ != nullptr) ++stats_->facts_derived;
        if (options_.track_provenance) {
          instance_->RecordDerivation(
              ref, Derivation{rule_index,
                              std::vector<FactRef>(
                                  positive_facts,
                                  positive_facts + num_positive_facts)});
        }
      }
    }
    if (total_facts_ > options_.max_facts) {
      return Status::ResourceExhausted(
          "chase exceeded max_facts = " + std::to_string(options_.max_facts));
    }
    return Status::OK();
  }

  bool RecordTrigger(size_t rule_index, const Rule& rule,
                     const Binding& binding) {
    TriggerKey key;
    key.rule_index = rule_index;
    std::vector<Term> body_vars = rule.BodyVariables();
    key.image.reserve(body_vars.size());
    for (Term v : body_vars) key.image.push_back(binding.Lookup(v));
    return fired_.insert(std::move(key)).second;
  }

  /// The -> false pass after the fixpoint, under the run's join
  /// strategy and deadline like every other match pass.
  Status CheckConstraints() {
    MatchOptions mo;
    mo.join_strategy = options_.join_strategy;
    if (deadline_set_) mo.deadline = options_.deadline;
    for (const Rule& rule : program_.rules()) {
      if (!rule.IsConstraint()) continue;
      if (deadline_set_ && DeadlineExpired()) return DeadlineError();
      bool violated = false;
      TRIQ_RETURN_IF_ERROR(
          MatchBody(rule, *instance_, mo, [&](const Match&) {
            violated = true;
            return false;
          }));
      if (violated) {
        return Status::Inconsistent(
            "constraint violated: " + RuleToString(rule, program_.dict()));
      }
    }
    return Status::OK();
  }

  const Program& program_;
  Instance* instance_;
  const ChaseOptions& options_;
  ChaseStats* stats_;
  // Saturated-prefix sizes for ResumeChase; null for a from-scratch run.
  const SaturatedSizes* resume_;
  size_t total_facts_ = 0;  // running TotalFacts(), kept by Fire
  bool deadline_set_ = false;  // cached options_.deadline != epoch
  // Workers for the sharded executor; null when num_threads <= 1.
  std::unique_ptr<common::ThreadPool> pool_;
  std::unordered_set<TriggerKey, TriggerKeyHash> fired_;

  // Per-shard match staging (entry 0 alone for an unsharded pass).
  std::vector<ShardStage> stages_;
  // The current drain's head check; null outside a restricted drain of
  // a single-head-atom existential rule.
  std::unique_ptr<HeadCheck> head_check_;
  Binding scratch_binding_;
  Tuple scratch_tuple_;
};

}  // namespace

Status ValidateChaseOptions(const ChaseOptions& options) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument(
        "ChaseOptions::num_threads must be >= 1 (the calling thread "
        "always participates)");
  }
  if (options.max_facts == 0) {
    return Status::InvalidArgument(
        "ChaseOptions::max_facts must be non-zero");
  }
  if (options.max_null_depth == 0) {
    return Status::InvalidArgument(
        "ChaseOptions::max_null_depth must be non-zero");
  }
  if (options.mode != ChaseOptions::Mode::kRestricted &&
      options.mode != ChaseOptions::Mode::kOblivious) {
    return Status::InvalidArgument(
        "ChaseOptions::mode holds no declared enumerator");
  }
  if (options.join_strategy != JoinStrategy::kAuto &&
      options.join_strategy != JoinStrategy::kBinary) {
    return Status::InvalidArgument(
        "ChaseOptions::join_strategy holds no declared enumerator");
  }
  return Status::OK();
}

Status RunChase(const datalog::Program& program, Instance* instance,
                const ChaseOptions& options, ChaseStats* stats) {
  TRIQ_RETURN_IF_ERROR(ValidateChaseOptions(options));
  return ChaseRun(program, instance, options, stats).Run();
}

Status ResumeChase(const datalog::Program& program, Instance* instance,
                   const SaturatedSizes& saturated,
                   const ChaseOptions& options, ChaseStats* stats) {
  TRIQ_RETURN_IF_ERROR(ValidateChaseOptions(options));
  return ChaseRun(program, instance, options, stats, &saturated).Run();
}

std::string ExplainProgramPlans(const datalog::Program& program,
                                const Instance& instance,
                                const ChaseOptions& options) {
  MatchOptions mo;
  mo.join_strategy = options.join_strategy;
  std::string out;
  size_t i = 0;
  for (const Rule& rule : program.rules()) {
    out += "rule " + std::to_string(i++) + ": " +
           datalog::RuleToString(rule, instance.dict()) + "\n";
    out += JoinPlan(rule, instance, mo).Explain();
    out += "\n";
  }
  return out;
}

}  // namespace triq::chase
