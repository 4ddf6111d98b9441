// The parallel sharded chase executor.
//
// The determinism contract (chase.h): for every num_threads, the chase
// produces a bit-identical instance — same tuples at the same tuple
// indexes, same null identities — and identical stats. These tests pin
// that down with storage-order fingerprints across an equivalence sweep
// (naive vs. seminaive × threads ∈ {1, 2, 4, 8}), at
// the MatchBody level via the DriverPlan sharding contract, on the
// degenerate shard shapes (empty delta, single tuple, too small to
// shard), and for the work-stealing pool itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "common/thread_pool.h"
#include "core/workloads.h"
#include "datalog/parser.h"

namespace triq {
namespace {

using chase::ChaseOptions;
using chase::ChaseStats;
using chase::Instance;

/// Renders the instance in STORAGE order (predicate id, then tuple
/// index) — unlike Instance::ToString, which sorts and so would hide
/// tuple-order divergence between runs. Equal fingerprints mean the
/// runs committed identical facts in the identical order.
std::string StorageFingerprint(const Instance& instance) {
  std::set<datalog::PredicateId> predicates;
  for (const auto& [pred, rel] : instance.relations()) predicates.insert(pred);
  std::string out;
  for (datalog::PredicateId pred : predicates) {
    const chase::Relation* rel = instance.Find(pred);
    out += instance.dict().Text(pred) + ":";
    for (chase::TupleView tuple : rel->tuples()) {
      out += " (";
      for (chase::Term t : tuple) out += datalog::TermToString(t, instance.dict()) + ",";
      out += ")";
    }
    out += "\n";
  }
  return out;
}

struct RunOutcome {
  std::string fingerprint;
  ChaseStats stats;
};

RunOutcome RunWith(const datalog::Program& program, const Instance& db,
                   ChaseOptions options) {
  Instance work = db.CloneFacts();
  ChaseStats stats;
  Status status = RunChase(program, &work, options, &stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return {StorageFingerprint(work), stats};
}

/// Asserts the full sweep: for each evaluation mode, every thread count
/// yields the t=1 outcome bit-identically (fingerprint + every stat);
/// across modes, the sorted instance contents agree.
void CheckEquivalenceSweep(const datalog::Program& program,
                           const Instance& db) {
  struct Mode {
    const char* name;
    bool seminaive;
  };
  const Mode kModes[] = {{"naive", false}, {"seminaive", true}};
  std::string content_across_modes;
  for (const Mode& mode : kModes) {
    ChaseOptions base;
    base.seminaive = mode.seminaive;
    RunOutcome reference = RunWith(program, db, base);
    for (size_t threads : {2, 4, 8}) {
      ChaseOptions options = base;
      options.num_threads = threads;
      RunOutcome outcome = RunWith(program, db, options);
      EXPECT_EQ(outcome.fingerprint, reference.fingerprint)
          << mode.name << " with " << threads
          << " threads committed different facts or a different order";
      EXPECT_EQ(outcome.stats.rounds, reference.stats.rounds)
          << mode.name << "/" << threads;
      EXPECT_EQ(outcome.stats.rule_firings, reference.stats.rule_firings)
          << mode.name << "/" << threads;
      EXPECT_EQ(outcome.stats.facts_derived, reference.stats.facts_derived)
          << mode.name << "/" << threads;
      EXPECT_EQ(outcome.stats.nulls_created, reference.stats.nulls_created)
          << mode.name << "/" << threads;
    }
    // Across modes the derivation order differs legitimately; the
    // sorted content may not.
    Instance work = db.CloneFacts();
    EXPECT_TRUE(RunChase(program, &work, base).ok());
    if (content_across_modes.empty()) {
      content_across_modes = work.ToString();
    } else {
      EXPECT_EQ(work.ToString(), content_across_modes) << mode.name;
    }
  }
}

TEST(ParallelChaseTest, TransitiveClosureSweep) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db = core::ChainDatabase(96, dict);
  CheckEquivalenceSweep(program, db);
}

TEST(ParallelChaseTest, RepeatedPredicatesAndNegationSweep) {
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 200; ++i) {
    db.AddFact("e", {"n" + std::to_string(i), "n" + std::to_string(i + 1)});
    if (i % 3 == 0) db.AddFact("blocked", {"n" + std::to_string(i)});
  }
  auto program = datalog::ParseProgram(
      "e(?X, ?Y) -> tc(?X, ?Y) .\n"
      "tc(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .\n"
      "tc(?X, ?Y), not blocked(?X) -> open(?X, ?Y) .\n",
      dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  CheckEquivalenceSweep(*program, db);
}

TEST(ParallelChaseTest, ExistentialRulesKeepNullIdentity) {
  // Existential rules allocate labeled nulls during the commit replay;
  // bit-identical fingerprints prove null ids are assigned in the same
  // order for every thread count.
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 300; ++i) {
    db.AddFact("person", {"p" + std::to_string(i)});
  }
  auto program = datalog::ParseProgram(
      "person(?X) -> exists ?Y parent(?X, ?Y), person(?Y) .\n", dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ChaseOptions base;
  base.max_null_depth = 3;
  RunOutcome reference = RunWith(*program, db, base);
  EXPECT_GT(reference.stats.nulls_created, 0u);
  for (size_t threads : {2, 4, 8}) {
    ChaseOptions options = base;
    options.num_threads = threads;
    RunOutcome outcome = RunWith(*program, db, options);
    EXPECT_EQ(outcome.fingerprint, reference.fingerprint) << threads;
    EXPECT_EQ(outcome.stats.nulls_created, reference.stats.nulls_created);
    EXPECT_EQ(outcome.stats.rule_firings, reference.stats.rule_firings);
  }
}

TEST(ParallelChaseTest, RandomGraphStrategyAndThreadSweep) {
  // Dense random digraph: most tc facts derive many times over (and
  // repeatedly within one pass), stressing the batch-commit's
  // staged-vs-staged dedup; sweep join strategies × thread counts.
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  uint64_t x = 99;
  for (int i = 0; i < 400; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    db.AddFact("e", {"n" + std::to_string(x % 60),
                     "n" + std::to_string((x >> 17) % 60)});
  }
  auto program = datalog::ParseProgram(
      "e(?X, ?Y) -> tc(?X, ?Y) .\n"
      "tc(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .\n",
      dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (auto strategy :
       {chase::JoinStrategy::kAuto, chase::JoinStrategy::kBinary}) {
    ChaseOptions base;
    base.join_strategy = strategy;
    RunOutcome reference = RunWith(*program, db, base);
    EXPECT_GT(reference.stats.rule_firings, reference.stats.facts_derived)
        << "workload must re-derive facts to stress the dedup";
    for (size_t threads : {2, 8}) {
      ChaseOptions options = base;
      options.num_threads = threads;
      RunOutcome outcome = RunWith(*program, db, options);
      EXPECT_EQ(outcome.fingerprint, reference.fingerprint)
          << "strategy " << static_cast<int>(strategy) << ", " << threads
          << " threads";
      EXPECT_EQ(outcome.stats.rule_firings, reference.stats.rule_firings);
      EXPECT_EQ(outcome.stats.facts_derived, reference.stats.facts_derived);
    }
  }
}

TEST(ParallelChaseTest, ParallelRehashMatchesSequentialInserts) {
  // Drives Relation's partition-parallel rehash directly: a relation
  // already holding 40k tuples (above the 32k parallel-rehash
  // threshold) takes a batch whose staged influx overloads the dedup
  // table, so BatchInserter::Prepare doubles it through the pool. The
  // committed relation must be indistinguishable from plain sequential
  // Insert()s of the same stream: same tuples at the same indexes, and
  // every tuple findable through the rebuilt table.
  using chase::Relation;
  auto term = [](uint32_t v) { return datalog::Term::Constant(v); };
  Relation rel(2), ref(2);
  for (uint32_t i = 0; i < 40000; ++i) {
    chase::Tuple t = {term(i % 9000), term(i)};
    rel.Insert(t);
    ref.Insert(t);
  }
  ASSERT_EQ(rel.size(), 40000u);

  // Staged stream: fresh tuples, repeats of stored tuples, in-stream
  // duplicates — row-major with precomputed Hash32, as the sharded
  // chase commit stages them.
  std::vector<chase::Term> flat;
  auto stage = [&](uint32_t a, uint32_t b) {
    flat.push_back(term(a));
    flat.push_back(term(b));
  };
  for (uint32_t i = 0; i < 20000; ++i) {
    stage(i % 9000, 40000 + i);                   // fresh
    if (i % 5 == 0) stage(i % 9000, i);           // already stored
    if (i % 7 == 0) stage(i % 9000, 40000 + i);   // in-stream duplicate
  }
  uint32_t n = static_cast<uint32_t>(flat.size() / 2);
  std::vector<uint32_t> hashes(n);
  for (uint32_t j = 0; j < n; ++j) {
    hashes[j] = Relation::Hash32(flat.data() + 2 * j, 2);
  }

  common::ThreadPool pool(3);
  chase::BatchInserter batch(&rel);
  batch.AddShard(flat.data(), hashes.data(), n);
  batch.Prepare(&pool);
  pool.ParallelFor(Relation::kDedupPartitions,
                   [&](size_t p) { batch.ScanPartition(p); });
  batch.CommitWinners();
  pool.ParallelFor(Relation::kDedupPartitions,
                   [&](size_t p) { batch.FinalizeSlots(p); });

  for (uint32_t j = 0; j < n; ++j) {
    ref.Insert(chase::Tuple{flat[2 * j], flat[2 * j + 1]});
  }
  ASSERT_EQ(rel.size(), ref.size());
  EXPECT_EQ(rel.size(), 60000u);
  for (uint32_t i = 0; i < rel.size(); i += 13) {
    EXPECT_EQ(rel.tuple(i)[0], ref.tuple(i)[0]) << i;
    EXPECT_EQ(rel.tuple(i)[1], ref.tuple(i)[1]) << i;
    EXPECT_EQ(rel.FindIndex(rel.tuple(i)), i) << i;
  }
}

TEST(ParallelChaseTest, LargeRunActuallyShards) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db = core::ChainDatabase(256, dict);
  ChaseOptions options;
  options.num_threads = 4;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &work, options, &stats).ok());
  EXPECT_GT(stats.sharded_passes, 0u)
      << "a 256-node closure never cleared the sharding threshold";
}

// ---- degenerate shard shapes -----------------------------------------

TEST(ParallelChaseTest, EmptyDatabaseAndEmptyDeltas) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db(dict);  // no edge facts at all
  ChaseOptions options;
  options.num_threads = 4;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &work, options, &stats).ok());
  EXPECT_EQ(stats.facts_derived, 0u);
  EXPECT_EQ(stats.sharded_passes, 0u);
}

TEST(ParallelChaseTest, SingleTupleWindowFallsBackToSequential) {
  auto dict = std::make_shared<Dictionary>();
  auto program = core::TransitiveClosureProgram(dict);
  Instance db = core::ChainDatabase(1, dict);
  ChaseOptions options;
  options.num_threads = 8;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &work, options, &stats).ok());
  EXPECT_EQ(stats.sharded_passes, 0u);  // one tuple: below the threshold
  Instance reference = db.CloneFacts();
  ASSERT_TRUE(RunChase(program, &reference, ChaseOptions{}).ok());
  EXPECT_EQ(StorageFingerprint(work), StorageFingerprint(reference));
}

TEST(ParallelChaseTest, WindowSmallerThanTwoShardsStaysSequential) {
  // 100 edges -> round-0 window of 100 tuples: one kMinDriverPerShard=64
  // shard only, so the scheduler must fall back (all-one-shard shape).
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 100; ++i) {
    db.AddFact("color", {"c" + std::to_string(i % 7)});
  }
  auto program =
      datalog::ParseProgram("color(?X) -> seen(?X) .\n", dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ChaseOptions options;
  options.num_threads = 4;
  Instance work = db.CloneFacts();
  ChaseStats stats;
  ASSERT_TRUE(RunChase(*program, &work, options, &stats).ok());
  EXPECT_EQ(stats.sharded_passes, 0u);
  EXPECT_EQ(work.Find("seen")->size(), 7u);
}

// ---- the DriverPlan sharding contract at the MatchBody level ----------

/// Collects the match stream (order-sensitive!) of one MatchBody pass.
std::vector<std::string> MatchStream(const datalog::Rule& rule,
                                     const Instance& db,
                                     const chase::MatchOptions& options) {
  std::vector<std::string> out;
  Status status =
      MatchBody(rule, db, options, [&](const chase::Match& match) {
        std::string line;
        for (const auto& [var, val] : match.binding->entries()) {
          line += datalog::TermToString(var, db.dict()) + "=" +
                  datalog::TermToString(val, db.dict()) + " ";
        }
        out.push_back(line);
        return true;
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(DriverPlanTest, ConcatenatedShardsEqualUnshardedStream) {
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 150; ++i) {
    db.AddFact("e", {"a" + std::to_string(i % 25), "b" + std::to_string(i)});
    db.AddFact("f", {"b" + std::to_string(i), "c" + std::to_string(i % 10)});
  }
  auto rule = datalog::ParseRule("e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)",
                                 dict.get());
  ASSERT_TRUE(rule.ok());
  for (auto strategy :
       {chase::JoinStrategy::kAuto, chase::JoinStrategy::kBinary}) {
    chase::MatchOptions options;
    options.join_strategy = strategy;
    std::vector<std::string> unsharded = MatchStream(*rule, db, options);
    ASSERT_FALSE(unsharded.empty());

    chase::DriverPlan plan = chase::PlanMatchDriver(*rule, db, options);
    ASSERT_GE(plan.body_index, 0);
    for (const auto& entry : db.relations()) entry.second.FreezeIndexes();
    for (size_t num_shards : {1, 2, 3, 7}) {
      std::vector<std::string> concatenated;
      for (size_t s = 0; s < num_shards; ++s) {
        size_t begin = plan.order.size() * s / num_shards;
        size_t end = plan.order.size() * (s + 1) / num_shards;
        chase::MatchOptions shard = options;
        shard.driver_order = plan.order.data() + begin;
        shard.driver_order_size = end - begin;
        shard.driver_sorted = plan.sorted;
        shard.driver_body_index = plan.body_index;
        std::vector<std::string> piece = MatchStream(*rule, db, shard);
        concatenated.insert(concatenated.end(), piece.begin(), piece.end());
      }
      EXPECT_EQ(concatenated, unsharded)
          << "strategy " << static_cast<int>(strategy) << ", " << num_shards
          << " shards";
    }
  }
}

TEST(DriverPlanTest, BoundPositionPlansAscendingSupersets) {
  // A constant in the depth-0 atom: the plan's order is the shortest
  // posting list (ascending); shards re-check by unification.
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  for (int i = 0; i < 80; ++i) {
    db.AddFact("t", {"s" + std::to_string(i), i % 2 == 0 ? "e" : "x",
                     "o" + std::to_string(i)});
  }
  auto rule = datalog::ParseRule("t(?X, e, ?Y) -> hop(?X, ?Y)", dict.get());
  ASSERT_TRUE(rule.ok());
  chase::MatchOptions options;
  chase::DriverPlan plan = chase::PlanMatchDriver(*rule, db, options);
  ASSERT_GE(plan.body_index, 0);
  EXPECT_FALSE(plan.sorted);
  EXPECT_EQ(plan.order.size(), 40u);  // the 'e' posting list, not all 80
  EXPECT_TRUE(std::is_sorted(plan.order.begin(), plan.order.end()));
  std::vector<std::string> unsharded = MatchStream(*rule, db, options);
  chase::MatchOptions shard = options;
  shard.driver_order = plan.order.data();
  shard.driver_order_size = plan.order.size();
  shard.driver_sorted = plan.sorted;
  shard.driver_body_index = plan.body_index;
  EXPECT_EQ(MatchStream(*rule, db, shard), unsharded);
}

TEST(DriverPlanTest, MismatchedBodyIndexFailsLoudly) {
  auto dict = std::make_shared<Dictionary>();
  Instance db(dict);
  db.AddFact("e", {"a", "b"});
  auto rule = datalog::ParseRule("e(?X, ?Y) -> r(?X, ?Y)", dict.get());
  ASSERT_TRUE(rule.ok());
  uint32_t order[] = {0};
  chase::MatchOptions options;
  options.driver_order = order;
  options.driver_order_size = 1;
  options.driver_body_index = 5;  // not the planned depth-0 atom
  Status status = MatchBody(*rule, db, options,
                            [](const chase::Match&) { return true; });
  EXPECT_FALSE(status.ok());
}

// ---- the work-stealing pool ------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  common::ThreadPool pool(3);
  for (size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, StealsSkewedWork) {
  // All the real work lands in the first indices; stealing must spread
  // it without dropping or duplicating any index.
  common::ThreadPool pool(4);
  std::atomic<uint64_t> checksum{0};
  const size_t n = 257;
  pool.ParallelFor(n, [&](size_t i) {
    uint64_t burn = 1;
    size_t spins = i < 8 ? 20000 : 10;
    for (size_t k = 0; k < spins; ++k) burn = burn * 31 + k;
    checksum += i + (burn & 1 ? 0 : 0);
  });
  EXPECT_EQ(checksum.load(), static_cast<uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  common::ThreadPool pool(0);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  common::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(17, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50u * 17u);
}

}  // namespace
}  // namespace triq
