// The materialize-once / query-many session API: Engine results must be
// bit-identical to the per-query core::TriqQuery::Evaluate and
// translate::EvaluateTranslated paths across entailment regimes, join
// strategies, and thread counts; repeated PreparedQuery evaluations must
// not re-chase; and post-materialize fact loads must re-saturate
// incrementally without changing any answer.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/fact_dump.h"
#include "chase/instance.h"
#include "core/triq.h"
#include "core/workloads.h"
#include "owl/ontology.h"
#include "owl/rdf_mapping.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "translate/sparql_to_datalog.h"

namespace {

using triq::Dictionary;
using triq::Engine;
using triq::EngineOptions;
using triq::EntailmentRegime;
using triq::PreparedQuery;
using triq::test::Dict;
using triq::test::Parse;

constexpr std::string_view kAuthorsTurtle = R"(
  dbUllman is_author_of "The Complete Book" .
  dbUllman is_author_of "Automata Theory" .
  dbUllman name "Jeffrey Ullman" .
  dbWidom is_author_of "The Complete Book" .
  dbWidom name "Jennifer Widom" .
)";

constexpr std::string_view kAuthorsQuery =
    "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X) .";

constexpr std::string_view kTcRules = R"(
  triple(?X, edge, ?Y) -> tc(?X, ?Y) .
  triple(?X, edge, ?Y), tc(?Y, ?Z) -> tc(?X, ?Z) .
)";

std::vector<triq::chase::Tuple> Sorted(std::vector<triq::chase::Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string ChainTurtle(int from, int to) {
  std::string out;
  for (int i = from; i < to; ++i) {
    out += "n" + std::to_string(i) + " edge n" + std::to_string(i + 1) +
           " .\n";
  }
  return out;
}

// ---- materialize-once == per-query evaluation -------------------------

TEST(EngineTest, MatchesPerQueryEvaluateAcrossThreads) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    // Reference: the one-shot TriqQuery path over the same facts.
    auto dict = Dict();
    triq::rdf::Graph graph(dict);
    ASSERT_TRUE(triq::rdf::ParseTurtle(kAuthorsTurtle, &graph).ok());
    auto reference_query = triq::core::TriqQuery::Create(
        Parse(kAuthorsQuery, dict), "query");
    ASSERT_TRUE(reference_query.ok());
    auto reference = reference_query->Evaluate(
        triq::chase::Instance::FromGraph(graph));
    ASSERT_TRUE(reference.ok());

    Engine engine(EngineOptions().SetNumThreads(threads));
    ASSERT_TRUE(engine.LoadTurtle(kAuthorsTurtle).ok());
    auto prepared = engine.Prepare(kAuthorsQuery, "query");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (int round = 0; round < 3; ++round) {
      auto answers = prepared->Evaluate();
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      EXPECT_EQ(Sorted(*answers).size(), 2u);
      // Engine and reference use different dictionaries; compare by
      // text.
      std::vector<std::string> engine_texts, reference_texts;
      for (const auto& t : *answers) {
        engine_texts.push_back(engine.dict().Text(t[0].symbol()));
      }
      for (const auto& t : *reference) {
        reference_texts.push_back(dict->Text(t[0].symbol()));
      }
      std::sort(engine_texts.begin(), engine_texts.end());
      std::sort(reference_texts.begin(), reference_texts.end());
      EXPECT_EQ(engine_texts, reference_texts) << "threads " << threads;
    }
  }
}

TEST(EngineTest, SparqlMatchesEvaluateTranslatedAcrossRegimes) {
  // The Section 5.3 herbivores ontology: only the relaxed regime finds
  // the dog, the active-domain regime finds nothing, and without
  // reasoning the pattern has no match at all.
  auto build_ontology = [](Dictionary* dict, triq::owl::Ontology* onto) {
    triq::SymbolId animal = dict->Intern("animal");
    triq::SymbolId plant = dict->Intern("plant_material");
    triq::SymbolId eats = dict->Intern("eats");
    onto->DeclareClass(animal);
    onto->DeclareClass(plant);
    onto->DeclareProperty(eats);
    onto->AddClassAssertion(triq::owl::BasicClass::Named(animal),
                            dict->Intern("dog"));
    onto->AddSubClassOf(
        triq::owl::BasicClass::Named(animal),
        triq::owl::BasicClass::Exists(triq::owl::BasicProperty{eats, false}));
    onto->AddSubClassOf(
        triq::owl::BasicClass::Exists(triq::owl::BasicProperty{eats, true}),
        triq::owl::BasicClass::Named(plant));
  };
  const std::string pattern_text =
      "{ ?X eats _:B . _:B rdf:type plant_material }";

  const struct {
    EntailmentRegime engine_regime;
    triq::translate::Regime translate_regime;
    size_t expected_mappings;
  } kRegimes[] = {
      {EntailmentRegime::kNone, triq::translate::Regime::kPlain, 0},
      {EntailmentRegime::kActiveDomain,
       triq::translate::Regime::kActiveDomain, 0},
      {EntailmentRegime::kAll, triq::translate::Regime::kAll, 1},
  };
  for (const auto& regime : kRegimes) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      // Reference: translate + chase from scratch, per query.
      auto dict = Dict();
      triq::owl::Ontology ontology;
      build_ontology(dict.get(), &ontology);
      triq::rdf::Graph graph(dict);
      OntologyToGraph(ontology, &graph);
      auto pattern = triq::sparql::ParsePattern(pattern_text, dict.get());
      ASSERT_TRUE(pattern.ok());
      triq::translate::TranslationOptions options;
      options.regime = regime.translate_regime;
      auto translated = TranslatePattern(**pattern, dict, options);
      ASSERT_TRUE(translated.ok());
      auto reference = EvaluateTranslated(*translated, graph);
      ASSERT_TRUE(reference.ok());

      Engine engine(EngineOptions()
                        .SetRegime(regime.engine_regime)
                        .SetNumThreads(threads));
      triq::owl::Ontology engine_ontology;
      build_ontology(&engine.dict(), &engine_ontology);
      ASSERT_TRUE(engine.AttachOntology(engine_ontology).ok());
      for (int round = 0; round < 2; ++round) {
        auto mappings = engine.Query(pattern_text);
        ASSERT_TRUE(mappings.ok()) << mappings.status().ToString();
        EXPECT_EQ(mappings->size(), regime.expected_mappings);
        EXPECT_EQ(mappings->ToString(engine.dict()),
                  reference->ToString(*dict))
            << EntailmentRegimeName(regime.engine_regime) << " threads "
            << threads;
      }
    }
  }
}

// ---- prepared queries: plan once, evaluate many -----------------------

TEST(EngineTest, SecondEvaluatePerformsZeroChaseRounds) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(ChainTurtle(0, 32)).ok());
  ASSERT_TRUE(engine.AttachRules(kTcRules).ok());
  auto prepared = engine.Prepare(
      "tc(?X, ?Y) -> reach(?X, ?Y) .", "reach");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  triq::chase::ChaseStats first;
  auto answers = prepared->Evaluate(&first);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 32u * 33u / 2);
  EXPECT_GT(first.rounds, 0u);
  EXPECT_GT(first.rule_firings, 0u);

  triq::chase::ChaseStats second;
  auto again = prepared->Evaluate(&second);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(second.rounds, 0u) << "second Evaluate must not re-chase";
  EXPECT_EQ(second.rule_firings, 0u);
  EXPECT_EQ(second.facts_derived, 0u);
  EXPECT_EQ(Sorted(*answers), Sorted(*again));
}

TEST(EngineTest, MaterializeIsIdempotentAndExplicit) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(ChainTurtle(0, 8)).ok());
  ASSERT_TRUE(engine.AttachRules(kTcRules).ok());
  EXPECT_FALSE(engine.IsMaterialized());
  auto stats = engine.Materialize();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->facts_derived, 0u);
  EXPECT_TRUE(engine.IsMaterialized());
  // Clean session: a second Materialize is a stats-free no-op.
  auto again = engine.Materialize();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rounds, 0u);
  EXPECT_EQ(again->facts_derived, 0u);
  EXPECT_EQ(engine.materializations(), 1u);
  EXPECT_EQ(engine.rebuilds(), 1u);
}

TEST(EngineTest, EmptyQueryProgramReadsDataDerivedAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(ChainTurtle(0, 4)).ok());
  ASSERT_TRUE(engine.AttachRules(kTcRules).ok());
  auto prepared = engine.Prepare("", "tc");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto answers = prepared->Evaluate();
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 10u);
  // Answers() is the same read without preparing.
  auto direct = engine.Answers("tc");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Sorted(*answers), Sorted(*direct));
}

// ---- delta re-materialization -----------------------------------------

TEST(EngineTest, PostMaterializeLoadResaturatesIncrementally) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(ChainTurtle(0, 16)).ok());
  ASSERT_TRUE(engine.AttachRules(kTcRules).ok());
  auto prepared = engine.Prepare("", "tc");
  ASSERT_TRUE(prepared.ok());
  auto before = prepared->Evaluate();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 16u * 17u / 2);

  // Extend the chain: the appended delta links n16 onward, so the
  // closure must now also bridge across the old/new boundary.
  ASSERT_TRUE(engine.LoadTurtle(ChainTurtle(16, 24)).ok());
  EXPECT_FALSE(engine.IsMaterialized());
  auto after = prepared->Evaluate();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 24u * 25u / 2);
  // The second materialization was an incremental resume, not a rebuild.
  EXPECT_EQ(engine.materializations(), 2u);
  EXPECT_EQ(engine.rebuilds(), 1u);

  // Cross-check against a fresh session loaded with everything.
  Engine fresh;
  ASSERT_TRUE(fresh.LoadTurtle(ChainTurtle(0, 24)).ok());
  ASSERT_TRUE(fresh.AttachRules(kTcRules).ok());
  auto fresh_answers = fresh.Prepare("", "tc")->Evaluate();
  ASSERT_TRUE(fresh_answers.ok());
  std::vector<std::string> a, b;
  for (const auto& t : *after) {
    a.push_back(engine.dict().Text(t[0].symbol()) + " " +
                engine.dict().Text(t[1].symbol()));
  }
  for (const auto& t : *fresh_answers) {
    b.push_back(fresh.dict().Text(t[0].symbol()) + " " +
                fresh.dict().Text(t[1].symbol()));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(EngineTest, AttachAfterMaterializeRebuildsFromBase) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(ChainTurtle(0, 4)).ok());
  ASSERT_TRUE(engine.AttachRules(kTcRules).ok());
  ASSERT_TRUE(engine.Materialize().ok());
  ASSERT_TRUE(
      engine.AttachRules("tc(?X, ?Y) -> linked(?X) .").ok());
  auto answers = engine.Answers("linked");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 4u);
  EXPECT_EQ(engine.materializations(), 2u);
  EXPECT_EQ(engine.rebuilds(), 2u);
}

TEST(EngineTest, NonMonotoneDataProgramRebuildsOnDelta) {
  // Stratified negation: unreached(?X) flips when the delta extends the
  // chain, so an in-place resume would leave a stale fact behind — the
  // engine must rebuild instead.
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .\nc self c .").ok());
  ASSERT_TRUE(engine.AttachRules(R"(
    triple(?X, edge, ?Y) -> reached(?Y) .
    triple(?X, self, ?X), not reached(?X) -> island(?X) .
  )").ok());
  auto islands = engine.Answers("island");
  ASSERT_TRUE(islands.ok());
  EXPECT_EQ(islands->size(), 1u);  // c is not reached

  ASSERT_TRUE(engine.LoadTurtle("b edge c .").ok());
  auto after = engine.Answers("island");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 0u) << "c is now reached; island(c) must go";
  EXPECT_EQ(engine.rebuilds(), 2u) << "negation forces a full rebuild";
}

// ---- binary fact dumps -------------------------------------------------

TEST(EngineTest, LoadFactsRemapsSymbolsAndNulls) {
  // Dump written over one dictionary, loaded into an engine whose
  // dictionary already interned other symbols (so every file-local id is
  // shifted), next to facts that join against the dump.
  const std::string path = ::testing::TempDir() + "/engine_dump.facts";
  {
    auto dict = Dict();
    triq::chase::Instance out(dict);
    triq::chase::Term null = out.AllocateNull(0);
    out.AddFact("likes", {"alice", "tea"});
    out.AddFact(dict->Intern("owner"),
                triq::chase::Tuple{
                    triq::datalog::Term::Constant(dict->Intern("rex")), null});
    out.AddFact(dict->Intern("dog"), triq::chase::Tuple{null});
    ASSERT_TRUE(SaveFacts(out, path).ok());
  }

  Engine engine;
  engine.dict().Intern("shift0");
  engine.dict().Intern("shift1");
  ASSERT_TRUE(engine.LoadTurtle("alice knows bob .").ok());
  ASSERT_TRUE(engine.LoadFacts(path).ok());
  // The dump's null keeps its identity: owner and dog join on it.
  ASSERT_TRUE(engine.AttachRules(
      "owner(?X, ?Y), dog(?Y) -> has_dog(?X) .\n"
      "likes(?X, ?Z), triple(?X, knows, ?W) -> social(?X) .").ok());
  auto has_dog = engine.Answers("has_dog");
  ASSERT_TRUE(has_dog.ok());
  ASSERT_EQ(has_dog->size(), 1u);
  EXPECT_EQ(engine.dict().Text((*has_dog)[0][0].symbol()), "rex");
  auto social = engine.Answers("social");
  ASSERT_TRUE(social.ok());
  ASSERT_EQ(social->size(), 1u);
  EXPECT_EQ(engine.dict().Text((*social)[0][0].symbol()), "alice");
  std::remove(path.c_str());
}

// ---- validation --------------------------------------------------------

TEST(EngineTest, InvalidOptionsSurfaceFromMaterialize) {
  {
    Engine engine(EngineOptions().SetNumThreads(0));
    ASSERT_TRUE(engine.LoadTurtle("a b c .").ok());
    auto stats = engine.Materialize();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), triq::StatusCode::kInvalidArgument);
  }
  {
    Engine engine(EngineOptions().SetMaxFacts(0));
    auto stats = engine.Materialize();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), triq::StatusCode::kInvalidArgument);
  }
  // Enum fields must hold declared enumerators, not stray casts.
  triq::chase::ChaseOptions stray;
  stray.join_strategy = static_cast<triq::chase::JoinStrategy>(7);
  EXPECT_EQ(ValidateChaseOptions(stray).code(),
            triq::StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateChaseOptions(triq::chase::ChaseOptions()).ok());
}

TEST(EngineTest, QueryHeadPredicateClaims) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
  auto first =
      engine.Prepare("triple(?X, edge, ?Y) -> q(?X) .", "q");
  ASSERT_TRUE(first.ok());
  // Identical program: shares the claim.
  auto same = engine.Prepare("triple(?X, edge, ?Y) -> q(?X) .", "q");
  EXPECT_TRUE(same.ok());
  // Different program, same head predicate: rejected.
  auto clash = engine.Prepare("triple(?X, edge, ?Y) -> q(?Y) .", "q");
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), triq::StatusCode::kInvalidArgument);
  // A query may not derive a predicate the data program mentions.
  ASSERT_TRUE(engine.AttachRules("triple(?X, edge, ?Y) -> tc(?X, ?Y) .").ok());
  auto data_clash = engine.Prepare("triple(?X, edge, ?Y) -> tc(?Y, ?X) .",
                                   "tc");
  ASSERT_FALSE(data_clash.ok());
  EXPECT_EQ(data_clash.status().code(),
            triq::StatusCode::kInvalidArgument);
}

TEST(EngineTest, CrossQueryReadsAreRejectedInBothPrepareOrders) {
  // One query reading another's derived predicate would make answers
  // depend on evaluation order (and go stale under caching) — rejected
  // regardless of which side is prepared first.
  const std::string derives = "triple(?X, edge, ?Y) -> mid(?X) .";
  const std::string reads = "mid(?X) -> top(?X) .";
  {
    Engine engine;
    ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
    auto deriver = engine.Prepare(derives, "mid");  // held: claims live
    ASSERT_TRUE(deriver.ok());
    auto reader = engine.Prepare(reads, "top");
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), triq::StatusCode::kInvalidArgument);
  }
  {
    Engine engine;
    ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
    auto reader = engine.Prepare(reads, "top");  // held: claims live
    ASSERT_TRUE(reader.ok());
    auto deriver = engine.Prepare(derives, "mid");
    ASSERT_FALSE(deriver.ok());
    EXPECT_EQ(deriver.status().code(), triq::StatusCode::kInvalidArgument);
  }
  // Combined into one program, the same rules are plain recursion.
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
  auto combined = engine.Prepare(derives + "\n" + reads, "top");
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  auto answers = combined->Evaluate();
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

TEST(EngineTest, FailedLoadsCannotDesyncTheClosure) {
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle("a edge b .").ok());
  auto prepared = engine.Prepare("triple(?X, edge, ?Y) -> q(?X) .", "q");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Evaluate().ok());

  // Loading facts into a query-derived relation is rejected up front,
  // leaving the session clean (still materialized).
  triq::chase::Instance claimed(engine.dict_ptr());
  claimed.AddFact("q", {"sneaky"});
  auto status = engine.LoadDatabase(std::move(claimed));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), triq::StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.IsMaterialized());

  // Loads are all-or-nothing: an arity conflict against an existing
  // relation is detected before anything is appended, so the unrelated
  // facts riding in the same source must NOT be stranded in the base.
  triq::chase::Instance bad(engine.dict_ptr());
  bad.AddFact("extra", {"stranded"});
  bad.AddFact("triple", {"only", "two"});
  auto rejected = engine.LoadDatabase(std::move(bad));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), triq::StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.IsMaterialized()) << "rejected load left session dirty";
  EXPECT_EQ(engine.base().Find("extra"), nullptr)
      << "rejected load half-applied into the base";
  auto after = prepared->Evaluate();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
}

TEST(EngineTest, DataProgramMayExtendLoadedPredicates) {
  // The rule-library idiom (triq_run --program): attached data rules may
  // write into loaded relations like triple.
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(R"(
    a1 is_author_of book1 .
    a1 owl:sameAs a2 .
    a2 name "Ann" .
  )").ok());
  ASSERT_TRUE(engine.AttachRules(R"(
    triple(?X, owl:sameAs, ?Y) -> triple(?Y, owl:sameAs, ?X) .
    triple(?X, owl:sameAs, ?Y), triple(?X, name, ?N) -> triple(?Y, name, ?N) .
    triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X) .
  )").ok());
  auto answers = engine.Answers("query");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 1u);
}

TEST(EngineTest, InconsistentOntologyIsTop) {
  // dog asserted to be both animal and plant_material, declared
  // disjoint: the regime's constraint fires and every query answers ⊤.
  Engine engine(EngineOptions().SetRegime(EntailmentRegime::kActiveDomain));
  triq::owl::Ontology ontology;
  Dictionary& dict = engine.dict();
  triq::SymbolId animal = dict.Intern("animal");
  triq::SymbolId plant = dict.Intern("plant_material");
  ontology.DeclareClass(animal);
  ontology.DeclareClass(plant);
  ontology.AddDisjointClasses(triq::owl::BasicClass::Named(animal),
                              triq::owl::BasicClass::Named(plant));
  ontology.AddClassAssertion(triq::owl::BasicClass::Named(animal),
                             dict.Intern("dog"));
  ontology.AddClassAssertion(triq::owl::BasicClass::Named(plant),
                             dict.Intern("dog"));
  ASSERT_TRUE(engine.AttachOntology(ontology).ok());
  auto result = engine.Query("{ ?X rdf:type animal }");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), triq::StatusCode::kInconsistent);
}

// ---- non-monotone prepared queries (SPARQL OPT) ------------------------

TEST(EngineTest, OptionalPatternsStayCorrectAcrossDeltas) {
  // OPT translates to negation, so the prepared query evaluates on a
  // throwaway clone each time — results must track the session state.
  Engine engine;
  ASSERT_TRUE(engine.LoadTurtle(R"(
    alice knows bob .
    alice age "42" .
  )").ok());
  const std::string pattern =
      "OPT({ ?X knows ?Y }, { ?Y age ?A })";
  auto first = engine.Query(pattern);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), 1u);  // bob has no age: left-padded mapping

  ASSERT_TRUE(engine.LoadTurtle("bob age \"39\" .").ok());
  auto second = engine.Query(pattern);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  // Now the optional side binds ?A for bob.
  EXPECT_NE(second->ToString(engine.dict()), first->ToString(engine.dict()));
}

}  // namespace
