#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/instance.h"
#include "datalog/parser.h"
#include "owl/generator.h"
#include "owl/rdf_mapping.h"
#include "rdf/graph.h"
#include "test_util.h"
#include "translate/owl2ql_program.h"

namespace triq::chase {
namespace {

using datalog::Program;
using test::CountFacts;
using test::Dict;
using test::Parse;

TEST(ChaseTest, TransitiveClosureOfAChain) {
  auto dict = Dict();
  Program program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    edge(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                          dict);
  Instance db(dict);
  for (int i = 0; i < 10; ++i) {
    db.AddFact("edge", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "tc"), 55u);  // 10+9+...+1
}

TEST(ChaseTest, NaiveAndSeminaiveAgree) {
  auto dict1 = Dict();
  auto dict2 = Dict();
  const std::string_view text = R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    edge(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
    tc(?X, ?Y), tc(?Y, ?X) -> cyclic(?X) .
  )";
  auto build = [](std::shared_ptr<Dictionary> dict) {
    Instance db(dict);
    db.AddFact("edge", {"a", "b"});
    db.AddFact("edge", {"b", "c"});
    db.AddFact("edge", {"c", "a"});
    db.AddFact("edge", {"c", "d"});
    return db;
  };
  Instance db1 = build(dict1);
  Instance db2 = build(dict2);
  ChaseOptions naive;
  naive.seminaive = false;
  naive.join_strategy = JoinStrategy::kBinary;
  ASSERT_TRUE(RunChase(Parse(text, dict1), &db1, {}).ok());
  ASSERT_TRUE(RunChase(Parse(text, dict2), &db2, naive).ok());
  EXPECT_EQ(db1.ToString(), db2.ToString());
}

TEST(ChaseTest, ExistentialInventsNull) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
  EXPECT_EQ(CountFacts(db, "s"), 1u);
  const Relation* s = db.Find(dict->Intern("s"));
  EXPECT_TRUE(s->tuple(0)[1].IsNull());
}

TEST(ChaseTest, RestrictedChaseSkipsSatisfiedHead) {
  auto dict = Dict();
  // s(c, d) already witnesses the head for p(c).
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  db.AddFact("s", {"c", "d"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 0u);
  EXPECT_EQ(CountFacts(db, "s"), 1u);
}

TEST(ChaseTest, ObliviousChaseFiresAnyway) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  db.AddFact("s", {"c", "d"});
  ChaseOptions options;
  options.mode = ChaseOptions::Mode::kOblivious;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, options, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
  EXPECT_EQ(CountFacts(db, "s"), 2u);
}

TEST(ChaseTest, ObliviousChaseDoesNotRefireSameTrigger) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    s(?X, ?Y) -> t(?X) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  ChaseOptions options;
  options.mode = ChaseOptions::Mode::kOblivious;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, options, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
}

TEST(ChaseTest, RestrictedChaseTerminatesOnLoopWitness) {
  auto dict = Dict();
  // r(a,a) satisfies its own successor requirement: the restricted
  // chase fires nothing, while the oblivious chase diverges (bounded
  // only by the depth cap).
  Program program = Parse("r(?X, ?Y) -> exists ?Z r(?Y, ?Z) .", dict);
  Instance db(dict);
  db.AddFact("r", {"a", "a"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.nulls_created, 0u);

  Instance db2(dict);
  db2.AddFact("r", {"a", "a"});
  ChaseOptions oblivious;
  oblivious.mode = ChaseOptions::Mode::kOblivious;
  oblivious.max_null_depth = 4;
  ChaseStats stats2;
  ASSERT_TRUE(RunChase(program, &db2, oblivious, &stats2).ok());
  EXPECT_TRUE(stats2.truncated);
  EXPECT_EQ(stats2.nulls_created, 4u);
}

TEST(ChaseTest, RestrictedChaseDivergesWithoutWitnessUntilCap) {
  auto dict = Dict();
  // The classic non-terminating standard chase (every node needs a
  // *fresh* successor); the depth cap bounds it.
  Program program = Parse(R"(
    n(?X) -> exists ?Y e(?X, ?Y) .
    e(?X, ?Y) -> n(?Y) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("n", {"a"});
  ChaseOptions capped;
  capped.max_null_depth = 4;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, capped, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.nulls_created, 4u);
  EXPECT_GE(stats.nulls_created, 3u);
}

TEST(ChaseTest, HeadWithOnlyExistentialVarsSatisfiedByAnyFact) {
  auto dict = Dict();
  // ∃Y n(Y) is witnessed by n(a) itself under the restricted chase.
  Program program = Parse("n(?X) -> exists ?Y n(?Y) .", dict);
  Instance db(dict);
  db.AddFact("n", {"a"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(ChaseTest, StratifiedNegationComplement) {
  auto dict = Dict();
  Program program = Parse(R"(
    edge(?X, ?Y) -> reached(?Y) .
    node(?X), not reached(?X) -> source(?X) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("node", {"a"});
  db.AddFact("node", {"b"});
  db.AddFact("node", {"c"});
  db.AddFact("edge", {"a", "b"});
  db.AddFact("edge", {"b", "c"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "source"), 1u);
  EXPECT_TRUE(db.Contains(dict->Intern("source"),
                          {Term::Constant(dict->Intern("a"))}));
}

TEST(ChaseTest, MinMaxViaDoubleNegation) {
  auto dict = Dict();
  // The Π_aux idiom of Example 4.3.
  Program program = Parse(R"(
    succ0(?X, ?Y) -> less0(?X, ?Y) .
    succ0(?X, ?Y), less0(?Y, ?Z) -> less0(?X, ?Z) .
    less0(?X, ?Y) -> not_max(?X) .
    less0(?X, ?Y) -> not_min(?Y) .
    less0(?X, ?Y), not not_min(?X) -> zero0(?X) .
    less0(?Y, ?X), not not_max(?X) -> max0(?X) .
  )",
                          dict);
  Instance db(dict);
  for (int i = 0; i < 5; ++i) {
    db.AddFact("succ0", {std::to_string(i), std::to_string(i + 1)});
  }
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "zero0"), 1u);
  EXPECT_EQ(CountFacts(db, "max0"), 1u);
  EXPECT_TRUE(
      db.Contains(dict->Intern("zero0"), {Term::Constant(dict->Intern("0"))}));
  EXPECT_TRUE(
      db.Contains(dict->Intern("max0"), {Term::Constant(dict->Intern("5"))}));
}

TEST(ChaseTest, ConstraintViolationIsInconsistent) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X), q(?X) -> false .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("q", {"a"});
  Status status = RunChase(program, &db);
  EXPECT_EQ(status.code(), StatusCode::kInconsistent);
}

TEST(ChaseTest, ConstraintSatisfiedIsOk) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X), q(?X) -> false .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("q", {"b"});
  EXPECT_TRUE(RunChase(program, &db).ok());
}

TEST(ChaseTest, ConstraintSeesDerivedFacts) {
  auto dict = Dict();
  Program program = Parse(R"(
    p(?X) -> q(?X) .
    q(?X), r(?X) -> false .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("r", {"a"});
  EXPECT_EQ(RunChase(program, &db).code(), StatusCode::kInconsistent);
}

TEST(ChaseTest, ConstraintCheckHonoursAnExpiredDeadline) {
  // No rule derives anything, so the constraint pass is the whole run:
  // it must check the deadline like every other match pass.
  auto dict = Dict();
  Program program = Parse("p(?X), q(?X) -> false .", dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("q", {"b"});
  ChaseOptions options;
  options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(RunChase(program, &db, options).code(),
            StatusCode::kResourceExhausted);
  // Without a deadline the same run is consistent.
  EXPECT_TRUE(RunChase(program, &db).ok());
}

TEST(ChaseTest, ConstraintsOverEmptyRelationsSortNothing) {
  // τ_owl2ql_core over an ontology without disjointness axioms: disj
  // and disj_property stay empty, so its two -> false constraints can
  // never match, and their plans must build no index.
  auto dict = Dict();
  owl::RandomOntologyOptions oo;
  oo.num_classes = 12;
  oo.num_properties = 4;
  oo.num_individuals = 300;
  oo.num_subclass_axioms = 16;
  oo.num_subproperty_axioms = 4;
  oo.num_disjoint_axioms = 0;
  oo.num_class_assertions = 300;
  oo.num_property_assertions = 600;
  rdf::Graph graph(dict);
  owl::OntologyToGraph(owl::RandomOntology(oo, dict.get()), &graph);
  const Instance db = Instance::FromGraph(graph);
  const Program with = translate::BuildOwl2QlCoreProgram(dict);
  const Program without = with.WithoutConstraints();
  ASSERT_LT(without.rules().size(), with.rules().size());
  ChaseStats stats_with;
  ChaseStats stats_without;
  Instance a = db.CloneFacts();
  Instance b = db.CloneFacts();
  ASSERT_TRUE(RunChase(with, &a, {}, &stats_with).ok());
  ASSERT_TRUE(RunChase(without, &b, {}, &stats_without).ok());
  EXPECT_GT(stats_with.tuples_sorted, 0u);
  EXPECT_EQ(stats_with.tuples_sorted, stats_without.tuples_sorted);
  EXPECT_EQ(stats_with.facts_derived, stats_without.facts_derived);
}

TEST(ChaseTest, MultiHeadRuleInsertsAllAtoms) {
  auto dict = Dict();
  Program program = Parse(
      "t(?X, ?Y, ?Z) -> c(?X), c(?Y), c(?Z) .", dict);
  Instance db(dict);
  db.AddFact("t", {"a", "b", "c"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "c"), 3u);
}

TEST(ChaseTest, SharedExistentialAcrossHeadAtoms) {
  auto dict = Dict();
  // The coauthor rule of Section 2: one shared blank per match.
  Program program = Parse(R"(
    coauthor(?X, ?Y) -> exists ?Z author_of(?X, ?Z), author_of(?Y, ?Z) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("coauthor", {"aho", "ullman"});
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, 1u);
  const Relation* rel = db.Find(dict->Intern("author_of"));
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->tuple(0)[1], rel->tuple(1)[1]);  // same null
}

TEST(ChaseTest, MaxFactsCapAborts) {
  auto dict = Dict();
  Program program = Parse(R"(
    e(?X, ?Y) -> tc(?X, ?Y) .
    e(?X, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                          dict);
  Instance db(dict);
  for (int i = 0; i < 100; ++i) {
    db.AddFact("e", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  ChaseOptions options;
  options.max_facts = 200;
  EXPECT_EQ(RunChase(program, &db, options).code(),
            StatusCode::kResourceExhausted);
}

TEST(ChaseTest, GroundFactsExcludeNulls) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> exists ?Y s(?X, ?Y), t(?X) .", dict);
  Instance db(dict);
  db.AddFact("p", {"c"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  // Ground semantics Π(D)↓: p(c) and t(c) but not s(c, null).
  EXPECT_EQ(db.GroundFacts().size(), 2u);
  EXPECT_EQ(db.AllFacts().size(), 3u);
}

TEST(ChaseTest, NegationOverNullsIsSupported) {
  auto dict = Dict();
  // TriQ 1.0-style (non-grounded) negation: marked nulls are excluded.
  Program program = Parse(R"(
    p(?X) -> exists ?Y s(?X, ?Y) .
    s(?X, ?Y), q(?X) -> marked(?Y) .
    s(?X, ?Y), not marked(?Y) -> clean(?X) .
  )",
                          dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  db.AddFact("p", {"b"});
  db.AddFact("q", {"a"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "clean"), 1u);
  EXPECT_TRUE(db.Contains(dict->Intern("clean"),
                          {Term::Constant(dict->Intern("b"))}));
}

TEST(ChaseTest, EmptyDatabaseYieldsNothing) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> q(?X) .", dict);
  Instance db(dict);
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(db.TotalFacts(), 0u);
}

TEST(ChaseTest, ConstantsInRuleHeads) {
  auto dict = Dict();
  Program program = Parse("p(?X) -> tagged(?X, special) .", dict);
  Instance db(dict);
  db.AddFact("p", {"a"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_TRUE(db.Contains(dict->Intern("tagged"),
                          {Term::Constant(dict->Intern("a")),
                           Term::Constant(dict->Intern("special"))}));
}

TEST(ChaseTest, RepeatedVariableInBodyAtomFiltersMatches) {
  auto dict = Dict();
  Program program = Parse("e(?X, ?X) -> loop(?X) .", dict);
  Instance db(dict);
  db.AddFact("e", {"a", "a"});
  db.AddFact("e", {"a", "b"});
  ASSERT_TRUE(RunChase(program, &db).ok());
  EXPECT_EQ(CountFacts(db, "loop"), 1u);
}

// ---- restricted-chase head checks -------------------------------------
//
// A pass of a single-head-atom existential rule checks each trigger
// against the facts present before the pass (one planned probe) plus the
// facts created earlier in the same pass (a hash set of the head's
// frontier/constant values). Each case pins exact nulls and facts and
// checks that semi-naive kAuto on 1 and 4 threads and the naive kBinary
// oracle agree.

/// The head relation `pred` rendered one fact per line, sorted.
std::string RenderRelation(const Instance& db, std::string_view pred) {
  std::vector<std::string> lines;
  const Relation* rel = db.Find(pred);
  if (rel != nullptr) {
    for (TupleView t : rel->tuples()) {
      std::string line = std::string(pred) + "(";
      for (uint32_t i = 0; i < t.size(); ++i) {
        if (i > 0) line += ", ";
        line += TermToString(t[i], db.dict());
      }
      lines.push_back(line + ")");
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

struct RestrictedOutcome {
  ChaseStats stats;
  std::string facts;  // Instance::ToString
  Instance db;
};

/// Chases the database `fill` builds with `text` under semi-naive kAuto
/// on 1 and 4 threads and under the naive kBinary oracle; expects the
/// three to agree on nulls, truncation and every fact, and returns the
/// 1-thread run.
RestrictedOutcome RunRestrictedGrid(
    std::string_view text, const std::function<void(Instance*)>& fill,
    uint32_t max_null_depth = 128) {
  std::vector<RestrictedOutcome> outcomes;
  for (int variant = 0; variant < 3; ++variant) {
    auto dict = Dict();
    Program program = Parse(text, dict);
    Instance db(dict);
    fill(&db);
    ChaseOptions options;
    options.max_null_depth = max_null_depth;
    if (variant == 1) options.num_threads = 4;
    if (variant == 2) {
      options.seminaive = false;
      options.join_strategy = JoinStrategy::kBinary;
    }
    ChaseStats stats;
    Status status = RunChase(program, &db, options, &stats);
    EXPECT_TRUE(status.ok()) << status.ToString();
    std::string facts = db.ToString();
    outcomes.push_back({stats, std::move(facts), std::move(db)});
  }
  for (int variant = 1; variant < 3; ++variant) {
    SCOPED_TRACE(variant == 1 ? "4 threads" : "naive kBinary oracle");
    EXPECT_EQ(outcomes[variant].stats.nulls_created,
              outcomes[0].stats.nulls_created);
    EXPECT_EQ(outcomes[variant].stats.truncated, outcomes[0].stats.truncated);
    EXPECT_EQ(outcomes[variant].facts, outcomes[0].facts);
  }
  return std::move(outcomes[0]);
}

TEST(RestrictedHeadCheckTest, OneNullPerFrontierAcrossAShardedPass) {
  // 400 triggers in one pass, two frontier values: the pass is sharded
  // on 4 threads, and facts created in an earlier shard must satisfy
  // the same frontier's triggers in every later one.
  auto fill = [](Instance* db) {
    for (int i = 0; i < 200; ++i) {
      db->AddFact("q", {"a", "y" + std::to_string(i)});
      db->AddFact("q", {"b", "y" + std::to_string(i)});
    }
  };
  RestrictedOutcome out =
      RunRestrictedGrid("q(?X, ?Y) -> exists ?Z p(?X, ?Z) .", fill);
  EXPECT_EQ(out.stats.nulls_created, 2u);
  EXPECT_EQ(RenderRelation(out.db, "p"), "p(a, _:n0)\np(b, _:n1)\n");

  auto dict = Dict();
  Program program = Parse("q(?X, ?Y) -> exists ?Z p(?X, ?Z) .", dict);
  Instance db(dict);
  fill(&db);
  ChaseOptions options;
  options.num_threads = 4;
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, options, &stats).ok());
  EXPECT_GT(stats.sharded_passes, 0u);
}

TEST(RestrictedHeadCheckTest, ConstantInTheHead) {
  // p(x_i, c, _) is pre-existing for even i; p(x_i, d, _) (the wrong
  // constant) for i divisible by 3 must not count.
  auto fill = [](Instance* db) {
    for (int i = 0; i < 300; ++i) {
      std::string x = "x" + std::to_string(i);
      db->AddFact("q", {x});
      if (i % 2 == 0) db->AddFact("p", {x, "c", "w"});
      if (i % 3 == 0) db->AddFact("p", {x, "d", "w"});
    }
  };
  RestrictedOutcome out =
      RunRestrictedGrid("q(?X) -> exists ?Z p(?X, c, ?Z) .", fill);
  EXPECT_EQ(out.stats.nulls_created, 150u);
  std::vector<std::string> expected;
  int null_id = 0;
  for (int i = 0; i < 300; ++i) {
    std::string x = "x" + std::to_string(i);
    if (i % 2 == 0) {
      expected.push_back("p(" + x + ", c, w)");
    } else {
      expected.push_back("p(" + x + ", c, _:n" + std::to_string(null_id++) +
                         ")");
    }
    if (i % 3 == 0) expected.push_back("p(" + x + ", d, w)");
  }
  std::sort(expected.begin(), expected.end());
  std::string rendered;
  for (const std::string& line : expected) rendered += line + "\n";
  EXPECT_EQ(RenderRelation(out.db, "p"), rendered);
}

TEST(RestrictedHeadCheckTest, RepeatedExistentialNeedsEqualPositions) {
  // p(a, b, c) has distinct values where the head repeats ?Z, so it
  // does not satisfy a's triggers; p(b, e, e) does satisfy b's. The two
  // triggers of a in the pass share one null.
  auto fill = [](Instance* db) {
    db->AddFact("p", {"a", "b", "c"});
    db->AddFact("p", {"b", "e", "e"});
    for (const char* x : {"a", "b"}) {
      db->AddFact("q", {x, "y0"});
      db->AddFact("q", {x, "y1"});
    }
  };
  RestrictedOutcome out =
      RunRestrictedGrid("q(?X, ?Y) -> exists ?Z p(?X, ?Z, ?Z) .", fill);
  EXPECT_EQ(out.stats.nulls_created, 1u);
  EXPECT_EQ(RenderRelation(out.db, "p"),
            "p(a, _:n0, _:n0)\np(a, b, c)\np(b, e, e)\n");
}

TEST(RestrictedHeadCheckTest, TruncatedTriggerDoesNotBlockItsFrontier) {
  // q(a, deep) is staged first and its trigger exceeds max_null_depth,
  // so it creates nothing; q(a, c) has the same frontier at depth 0 and
  // must still fire in the same pass.
  auto fill = [](Instance* db) {
    Term deep = db->AllocateNull(2);
    PredicateId q = db->dict().Intern("q");
    Term a = Term::Constant(db->dict().Intern("a"));
    db->AddFact(q, Tuple{a, deep});
    db->AddFact(q, Tuple{a, Term::Constant(db->dict().Intern("c"))});
  };
  RestrictedOutcome out = RunRestrictedGrid(
      "q(?X, ?Y) -> exists ?Z p(?X, ?Z) .", fill, /*max_null_depth=*/2);
  EXPECT_EQ(out.stats.nulls_created, 1u);
  EXPECT_TRUE(out.stats.truncated);
  EXPECT_EQ(RenderRelation(out.db, "p"), "p(a, _:n1)\n");
}

TEST(RestrictedHeadCheckTest, MultiAtomHeadKeepsThePerTriggerCheck) {
  // The shared existential makes the head a two-atom join: p(a, w),
  // r(w, b) satisfies (a, b) but not (a, b2), and the two (c, d)
  // triggers share one null.
  auto fill = [](Instance* db) {
    db->AddFact("p", {"a", "w"});
    db->AddFact("r", {"w", "b"});
    db->AddFact("q", {"a", "b", "1"});
    db->AddFact("q", {"a", "b2", "1"});
    db->AddFact("q", {"c", "d", "1"});
    db->AddFact("q", {"c", "d", "2"});
  };
  RestrictedOutcome out = RunRestrictedGrid(
      "q(?X, ?Y, ?W) -> exists ?Z p(?X, ?Z), r(?Z, ?Y) .", fill);
  EXPECT_EQ(out.stats.nulls_created, 2u);
  EXPECT_EQ(RenderRelation(out.db, "p"),
            "p(a, _:n0)\np(a, w)\np(c, _:n1)\n");
  EXPECT_EQ(RenderRelation(out.db, "r"),
            "r(_:n0, b2)\nr(_:n1, d)\nr(w, b)\n");
}

TEST(RestrictedHeadCheckTest, SortWorkIsLinearInTheHeadRelation) {
  // 5,000 triggers, none satisfied, onto a 50,000-fact head relation:
  // the head checks sync the probed permutation once per pass, so the
  // sort/merge work is O(N + k log k) — not a merge of the whole
  // relation per created null, O(N * k).
  constexpr int kHead = 50000;
  constexpr int kTriggers = 5000;
  auto dict = Dict();
  Program program = Parse("q(?X) -> exists ?Z p(?X, ?Z) .", dict);
  Instance db(dict);
  for (int i = 0; i < kHead; ++i) {
    db.AddFact("p", {"h" + std::to_string(i), "w"});
  }
  for (int i = 0; i < kTriggers; ++i) {
    db.AddFact("q", {"x" + std::to_string(i)});
  }
  ChaseStats stats;
  ASSERT_TRUE(RunChase(program, &db, {}, &stats).ok());
  EXPECT_EQ(stats.nulls_created, static_cast<size_t>(kTriggers));
  EXPECT_GT(stats.tuples_sorted, 0u);
  EXPECT_LE(stats.tuples_sorted, 4u * (kHead + kTriggers * 13));
}

}  // namespace
}  // namespace triq::chase
