// Randomized invariant sweeps over the chase engine and the regime
// program — the "property-based" layer of the test suite.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "chase/backward.h"
#include "chase/chase.h"
#include "datalog/parser.h"
#include "owl/generator.h"
#include "owl/rdf_mapping.h"
#include "translate/owl2ql_program.h"

namespace triq {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

/// Generates a random plain-Datalog program with stratified negation
/// over a small schema, plus a random database.
class RandomDatalog {
 public:
  explicit RandomDatalog(uint64_t seed) : rng_(seed) {}

  std::string ProgramText(int rules) {
    // Predicates p0..p3 (EDB e0, e1). Later strata may negate earlier
    // IDB predicates; we keep a linear stratum order p0 < p1 < ... to
    // guarantee stratifiability.
    std::string out;
    for (int r = 0; r < rules; ++r) {
      int head = static_cast<int>(rng_() % 4);
      std::string body;
      int atoms = 1 + static_cast<int>(rng_() % 2);
      std::vector<std::string> vars = {"?X", "?Y", "?Z"};
      for (int a = 0; a < atoms; ++a) {
        if (a > 0) body += ", ";
        body += RandomEdbAtom(vars);
      }
      // Optionally negate a strictly lower predicate with bound vars.
      if (head > 0 && (rng_() % 3) == 0) {
        body += ", not p" + std::to_string(rng_() % head) + "(?X)";
      }
      // Optionally join a lower-or-equal IDB predicate positively.
      if (head > 0 && (rng_() % 2) == 0) {
        body += ", p" + std::to_string(rng_() % (head + 1)) + "(?Y)";
      }
      out += body + " -> p" + std::to_string(head) + "(?X) .\n";
    }
    return out;
  }

  void FillDatabase(chase::Instance* db, int facts) {
    for (int i = 0; i < facts; ++i) {
      std::string a = Constant();
      std::string b = Constant();
      db->AddFact(rng_() % 2 == 0 ? "e0" : "e1", {a, b});
    }
    // Seed the IDB floor so p0-joins have matches.
    db->AddFact("p0", {Constant()});
  }

 private:
  std::string Constant() {
    return std::string(1, static_cast<char>('a' + rng_() % 5));
  }
  std::string RandomEdbAtom(const std::vector<std::string>& vars) {
    std::string pred = rng_() % 2 == 0 ? "e0" : "e1";
    std::string v1 = vars[rng_() % vars.size()];
    std::string v2 = vars[rng_() % vars.size()];
    // Keep ?X bound: force it into the first atom.
    return pred + "(?X, " + (rng_() % 2 == 0 ? v1 : v2) + ")";
  }

  std::mt19937_64 rng_;
};

class ChaseEquivalenceSweep : public ::testing::TestWithParam<int> {};

/// Semi-naive and naive evaluation agree on random stratified programs.
TEST_P(ChaseEquivalenceSweep, SeminaiveEqualsNaive) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDatalog gen(seed);
  auto dict = Dict();
  auto program = datalog::ParseProgram(gen.ProgramText(6), dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  chase::Instance db1(dict), db2(dict);
  {
    RandomDatalog filler(seed + 1000);
    filler.FillDatabase(&db1, 12);
    RandomDatalog filler2(seed + 1000);
    filler2.FillDatabase(&db2, 12);
  }
  chase::ChaseOptions naive;
  naive.seminaive = false;
  naive.join_strategy = chase::JoinStrategy::kBinary;
  ASSERT_TRUE(RunChase(*program, &db1, {}).ok());
  ASSERT_TRUE(RunChase(*program, &db2, naive).ok());
  EXPECT_EQ(db1.ToString(), db2.ToString()) << program->ToString();
}

/// With old/delta/all partitioning, a rule whose body repeats a
/// predicate fires exactly once per distinct match: on a chain, the
/// t(X,Y), t(Y,Z) join has C(n+1, 3) matches, plus one firing per edge
/// for the base rule.
TEST(PartitionedSeminaiveTest, RepeatedPredicateFiringsAreExact) {
  auto dict = Dict();
  auto program = datalog::ParseProgram(R"(
    e(?X, ?Y) -> t(?X, ?Y) .
    t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z) .
  )",
                                       dict);
  ASSERT_TRUE(program.ok());
  constexpr int kEdges = 4;  // nodes v0..v4
  chase::Instance db(dict);
  for (int i = 0; i < kEdges; ++i) {
    db.AddFact("e", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  chase::ChaseStats stats;
  ASSERT_TRUE(RunChase(*program, &db, {}, &stats).ok());
  // t = all pairs i < j over 5 nodes = 10 facts; join matches = all
  // triples i < j < k = C(5,3) = 10; base rule = 4 edge matches.
  EXPECT_EQ(db.Find("t")->size(), 10u);
  EXPECT_EQ(stats.rule_firings, 14u);
}

/// Join order never changes the result, only the work.
TEST_P(ChaseEquivalenceSweep, JoinOrderIsSemanticsFree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDatalog gen(seed);
  auto dict = Dict();
  auto program = datalog::ParseProgram(gen.ProgramText(6), dict);
  ASSERT_TRUE(program.ok());
  chase::Instance db1(dict), db2(dict);
  {
    RandomDatalog filler(seed + 2000);
    filler.FillDatabase(&db1, 12);
    RandomDatalog filler2(seed + 2000);
    filler2.FillDatabase(&db2, 12);
  }
  chase::ChaseOptions written;
  written.join_strategy = chase::JoinStrategy::kBinary;
  ASSERT_TRUE(RunChase(*program, &db1, {}).ok());
  ASSERT_TRUE(RunChase(*program, &db2, written).ok());
  EXPECT_EQ(db1.ToString(), db2.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseEquivalenceSweep,
                         ::testing::Range(1, 21));

class RegimeInvariantSweep : public ::testing::TestWithParam<int> {};

/// Invariants of the fixed τ_owl2ql_core program on random ontologies:
/// triple1 ⊇ triple, C holds exactly the graph constants, and the
/// restricted chase terminates without hitting the caps.
TEST_P(RegimeInvariantSweep, SaturationInvariants) {
  auto dict = Dict();
  owl::RandomOntologyOptions options;
  options.seed = static_cast<uint64_t>(GetParam());
  options.num_classes = 6;
  options.num_properties = 3;
  options.num_individuals = 12;
  options.num_subclass_axioms = 8;
  options.num_class_assertions = 10;
  options.num_property_assertions = 15;
  owl::Ontology o = RandomOntology(options, dict.get());
  rdf::Graph g(dict);
  OntologyToGraph(o, &g);

  datalog::Program regime = translate::BuildOwl2QlCoreProgram(dict);
  chase::Instance db = chase::Instance::FromGraph(g);
  chase::ChaseStats stats;
  ASSERT_TRUE(RunChase(regime, &db, {}, &stats).ok());
  EXPECT_FALSE(stats.truncated);

  // triple ⊆ triple1.
  const chase::Relation* triple = db.Find(dict->Intern("triple"));
  const chase::Relation* triple1 = db.Find(dict->Intern("triple1"));
  ASSERT_NE(triple, nullptr);
  ASSERT_NE(triple1, nullptr);
  for (chase::TupleView t : triple->tuples()) {
    EXPECT_TRUE(triple1->Contains(t));
  }
  // triple itself is never polluted by nulls.
  for (chase::TupleView t : triple->tuples()) {
    for (chase::Term x : t) EXPECT_TRUE(x.IsConstant());
  }
  // C = the active domain of the graph, exactly.
  const chase::Relation* c_rel = db.Find(dict->Intern("C"));
  ASSERT_NE(c_rel, nullptr);
  std::vector<SymbolId> adom = g.ActiveDomain();
  EXPECT_EQ(c_rel->size(), adom.size());
  for (SymbolId s : adom) {
    EXPECT_TRUE(c_rel->Contains({chase::Term::Constant(s)}));
  }
}

/// Backward proving agrees with the chase on ground type(·,·) facts of
/// random chain/hierarchy ontologies.
TEST_P(RegimeInvariantSweep, BackwardAgreesOnTypes) {
  auto dict = Dict();
  int n = 2 + GetParam() % 4;
  owl::Ontology o = owl::ChainOntology(n, dict.get());
  rdf::Graph g(dict);
  OntologyToGraph(o, &g);
  datalog::Program regime =
      translate::BuildOwl2QlCoreProgram(dict).WithoutConstraints();
  chase::Instance chased = chase::Instance::FromGraph(g);
  ASSERT_TRUE(RunChase(regime, &chased).ok());
  chase::Instance db = chase::Instance::FromGraph(g);
  const chase::Relation* types = chased.Find(dict->Intern("type"));
  ASSERT_NE(types, nullptr);
  for (chase::TupleView t : types->tuples()) {
    if (!t[0].IsConstant() || !t[1].IsConstant()) continue;
    datalog::Atom goal{dict->Intern("type"), t.ToTuple(), false};
    auto proved = BackwardProve(regime, db, goal);
    ASSERT_TRUE(proved.ok());
    EXPECT_TRUE(*proved) << AtomToString(goal, *dict);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegimeInvariantSweep,
                         ::testing::Range(1, 13));

class ParserRoundTripSweep : public ::testing::TestWithParam<int> {};

/// ToString ∘ Parse is a fixpoint on random generated programs.
TEST_P(ParserRoundTripSweep, ProgramTextIsStable) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  auto dict = Dict();
  datalog::Program program(dict);
  for (int r = 0; r < 8; ++r) {
    datalog::Rule rule;
    int body_atoms = 1 + static_cast<int>(rng() % 3);
    auto term = [&]() -> datalog::Term {
      if (rng() % 2 == 0) {
        return datalog::Term::Variable(
            dict->Intern("?V" + std::to_string(rng() % 4)));
      }
      return datalog::Term::Constant(
          dict->Intern("k" + std::to_string(rng() % 4)));
    };
    std::vector<datalog::Term> positive_vars;
    for (int a = 0; a < body_atoms; ++a) {
      datalog::Atom atom;
      atom.predicate = dict->Intern("b" + std::to_string(rng() % 3));
      int arity = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < arity; ++i) atom.args.push_back(term());
      atom.CollectVariables(&positive_vars);
      rule.body.push_back(std::move(atom));
    }
    if (!positive_vars.empty() && rng() % 3 == 0) {
      datalog::Atom neg;
      neg.predicate = dict->Intern("n" + std::to_string(rng() % 2));
      neg.args = {positive_vars[rng() % positive_vars.size()]};
      neg.negated = true;
      rule.body.push_back(std::move(neg));
    }
    if (rng() % 5 == 0) {
      // constraint — drop any negated atoms to stay well-formed
      rule.body.erase(
          std::remove_if(rule.body.begin(), rule.body.end(),
                         [](const datalog::Atom& a) { return a.negated; }),
          rule.body.end());
    } else {
      datalog::Atom head;
      head.predicate = dict->Intern("h" + std::to_string(rng() % 2));
      int arity = 1 + static_cast<int>(rng() % 2);
      for (int i = 0; i < arity; ++i) {
        if (!positive_vars.empty() && rng() % 2 == 0) {
          head.args.push_back(positive_vars[rng() % positive_vars.size()]);
        } else {
          head.args.push_back(datalog::Term::Variable(
              dict->Intern("?E" + std::to_string(rng() % 2))));
        }
      }
      rule.head.push_back(std::move(head));
    }
    ASSERT_TRUE(program.AddRule(std::move(rule)).ok());
  }
  std::string text = program.ToString();
  auto reparsed = datalog::ParseProgram(text, dict);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed->ToString(), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripSweep,
                         ::testing::Range(1, 16));

}  // namespace
}  // namespace triq
