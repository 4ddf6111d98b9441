// The join-executor layer: kAuto vs kBinary plan equivalence.
//
// The planner (match.cc) picks the join order and each atom's access
// path — posting probes, a sorted driver + galloping merge cursor, or a
// leapfrog-triejoin residual; nothing about the produced matches may
// change. These tests pin that down at the MatchBody level and
// end-to-end through the chase, on hand-built joins and on randomized
// programs with negation and repeated predicates, and pin which access
// paths each strategy actually plans (so the two-strategy grids still
// reach every path).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/workloads.h"
#include "datalog/parser.h"

namespace triq {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

/// All matches of `rule`'s body as rendered bindings, sorted — the
/// enumeration-order-free fingerprint of a MatchBody pass.
std::vector<std::string> MatchFingerprint(const datalog::Rule& rule,
                                          const chase::Instance& db,
                                          chase::MatchOptions options) {
  std::vector<std::string> out;
  Status status =
      MatchBody(rule, db, options, [&](const chase::Match& match) {
        std::vector<std::string> parts;
        for (const auto& [var, val] : match.binding->entries()) {
          parts.push_back(TermToString(var, db.dict()) + "=" +
                          TermToString(val, db.dict()));
        }
        std::sort(parts.begin(), parts.end());
        std::string line;
        for (const std::string& p : parts) line += p + " ";
        out.push_back(line);
        return true;
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::sort(out.begin(), out.end());
  return out;
}

datalog::Rule ParseR(std::string_view text, Dictionary* dict) {
  auto rule = datalog::ParseRule(text, dict);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return std::move(rule).value();
}

TEST(MergeJoinMatchTest, StrategiesEnumerateTheSameMatches) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(11);
  // Dense enough that the driver window clears the kAuto threshold and
  // values repeat on both sides of the join.
  for (int i = 0; i < 120; ++i) {
    db.AddFact("e", {"a" + std::to_string(rng() % 12),
                     "b" + std::to_string(rng() % 12)});
    db.AddFact("f", {"b" + std::to_string(rng() % 12),
                     "c" + std::to_string(rng() % 12)});
  }
  datalog::Rule rule =
      ParseR("e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)", dict.get());
  // Full window: both strategies merge. A 20-tuple delta window is below
  // kAuto's merge threshold, so kAuto probes postings while kBinary
  // still merges.
  for (size_t window : {chase::kNoTupleLimit, size_t{20}}) {
    chase::MatchOptions binary;
    if (window != chase::kNoTupleLimit) {
      binary.delta_body_index = 0;
      binary.delta_begin = 50;
      binary.delta_end = 50 + window;
    }
    chase::MatchOptions automatic = binary;  // kAuto
    binary.join_strategy = chase::JoinStrategy::kBinary;
    auto expected = MatchFingerprint(rule, db, binary);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected)
        << "window=" << window;
  }
}

/// Plan-shape coverage for the two-strategy grids: ExplainMatchPlan shows
/// kAuto still planning merge, posting-probe, find-index and leapfrog
/// access paths on the shapes built for them, and kBinary never planning
/// leapfrog — so the {kAuto, kBinary} sweeps reach every access path.
TEST(JoinPlanShapeTest, StrategiesReachEveryAccessPath) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(11);
  for (int i = 0; i < 120; ++i) {
    db.AddFact("e", {"a" + std::to_string(rng() % 12),
                     "b" + std::to_string(rng() % 12)});
    db.AddFact("f", {"b" + std::to_string(rng() % 12),
                     "c" + std::to_string(rng() % 12)});
    db.AddFact("tc", {"n" + std::to_string(i), "n" + std::to_string(i + 1)});
  }
  auto plan = [&](std::string_view rule_text, chase::JoinStrategy strategy) {
    chase::MatchOptions options;
    options.join_strategy = strategy;
    return chase::ExplainMatchPlan(ParseR(rule_text, dict.get()), db,
                                   options);
  };
  auto has = [](const std::string& text, std::string_view needle) {
    return text.find(needle) != std::string::npos;
  };
  const std::string_view kMergeJoin = "e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)";
  const std::string_view kProbe = "e(a1, ?Y), f(?Y, ?Z) -> g(?Z)";
  const std::string_view kGround = "e(a1, ?Y), f(?Y, c2) -> g(?Y)";
  const std::string_view kTriangle =
      "e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> t(?X)";
  const std::string_view kChain =
      "tc(?A, ?B), tc(?B, ?C), tc(?C, ?D) -> big(?A, ?D)";

  std::string merge = plan(kMergeJoin, chase::JoinStrategy::kAuto);
  EXPECT_TRUE(has(merge, "strategy: merge (auto)")) << merge;
  EXPECT_TRUE(has(merge, "merge-cursor")) << merge;
  std::string probe = plan(kProbe, chase::JoinStrategy::kAuto);
  EXPECT_TRUE(has(probe, "0: e(a1, ?Y)  postings")) << probe;
  EXPECT_TRUE(has(probe, "1: f(?Y, ?Z)  postings")) << probe;
  std::string ground = plan(kGround, chase::JoinStrategy::kAuto);
  EXPECT_TRUE(has(ground, "find-index")) << ground;
  for (std::string_view shape : {kTriangle, kChain}) {
    std::string text = plan(shape, chase::JoinStrategy::kAuto);
    EXPECT_TRUE(has(text, "strategy: leapfrog (auto)")) << text;
    EXPECT_TRUE(has(text, "leapfrog[")) << text;
  }

  for (std::string_view shape :
       {kMergeJoin, kProbe, kGround, kTriangle, kChain}) {
    std::string text = plan(shape, chase::JoinStrategy::kBinary);
    EXPECT_TRUE(has(text, "(binary)")) << text;
    EXPECT_FALSE(has(text, "leapfrog")) << text;
  }
  EXPECT_TRUE(has(plan(kMergeJoin, chase::JoinStrategy::kBinary),
                  "strategy: merge (binary)"));
  EXPECT_TRUE(
      has(plan(kTriangle, chase::JoinStrategy::kBinary), "merge-cursor"));
}

/// The leapfrog residual on the workload it was built for: a 3-atom
/// cyclic (triangle) rule, where kAuto engages it. kAuto and the binary
/// plan enumerate the identical match set, with and without
/// delta/atom_end windows on the driver.
TEST(MergeJoinMatchTest, TriangleStrategiesAgreeUnderWindows) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(23);
  for (int i = 0; i < 300; ++i) {
    db.AddFact("e", {"n" + std::to_string(rng() % 24),
                     "n" + std::to_string(rng() % 24)});
  }
  datalog::Rule rule =
      ParseR("e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> t(?X, ?Z)", dict.get());
  chase::MatchOptions base;
  for (size_t delta_begin : {chase::kNoTupleLimit, size_t{0}, size_t{150}}) {
    chase::MatchOptions opts = base;
    if (delta_begin != chase::kNoTupleLimit) {
      opts.delta_body_index = 0;
      opts.delta_begin = delta_begin;
      opts.delta_end = delta_begin + 120;
      opts.atom_end = {chase::kNoTupleLimit, 280, 260};
    }
    chase::MatchOptions binary = opts;
    binary.join_strategy = chase::JoinStrategy::kBinary;
    chase::MatchOptions automatic = opts;  // kAuto: engages the leapfrog
    auto expected = MatchFingerprint(rule, db, binary);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected)
        << "delta_begin=" << delta_begin;
  }
}

/// A 4-atom star join (shared center variable) through the leapfrog
/// residual, with a repeated predicate and a constant restriction.
TEST(MergeJoinMatchTest, StarJoinStrategiesAgree) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(31);
  for (int i = 0; i < 200; ++i) {
    db.AddFact("a", {"c" + std::to_string(rng() % 8),
                     "x" + std::to_string(rng() % 40)});
    db.AddFact("b", {"c" + std::to_string(rng() % 8),
                     "y" + std::to_string(rng() % 6)});
  }
  datalog::Rule rule = ParseR(
      "a(?C, ?X), b(?C, ?Y), a(?C, ?Z), b(?C, y3) -> s(?X, ?Y, ?Z)",
      dict.get());
  chase::MatchOptions binary;
  binary.join_strategy = chase::JoinStrategy::kBinary;
  chase::MatchOptions automatic;
  auto expected = MatchFingerprint(rule, db, binary);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected);
}

TEST(MergeJoinMatchTest, StrategiesRespectDeltaAndAtomEndWindows) {
  auto dict = Dict();
  chase::Instance db(dict);
  for (int i = 0; i < 80; ++i) {
    db.AddFact("e", {"v" + std::to_string(i % 10),
                     "v" + std::to_string((i + 1) % 10) + "_" +
                         std::to_string(i)});
    db.AddFact("e", {"v" + std::to_string(i % 10) + "_x",
                     "v" + std::to_string((i * 3) % 10)});
  }
  datalog::Rule rule =
      ParseR("e(?X, ?Y), e(?Y, ?Z) -> p(?X, ?Z)", dict.get());
  // 20-tuple windows: kAuto probes, kBinary merges; 50: both merge.
  for (size_t window : {20u, 50u}) {
    for (size_t delta_begin : {0u, 40u, 100u}) {
      chase::MatchOptions automatic;
      automatic.delta_body_index = 0;
      automatic.delta_begin = delta_begin;
      automatic.delta_end = delta_begin + window;
      automatic.atom_end = {chase::kNoTupleLimit, 120};
      chase::MatchOptions binary = automatic;
      binary.join_strategy = chase::JoinStrategy::kBinary;
      EXPECT_EQ(MatchFingerprint(rule, db, binary),
                MatchFingerprint(rule, db, automatic))
          << "window=" << window << " delta_begin=" << delta_begin;
    }
  }
}

/// Generates a random plain-Datalog program with stratified negation
/// over a small schema, plus a random database (the property_test
/// generator shape, denser so merge paths engage).
class RandomDatalog {
 public:
  explicit RandomDatalog(uint64_t seed) : rng_(seed) {}

  std::string ProgramText(int rules) {
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
      if (head > 0 && (rng_() % 3) == 0) {
        body += ", not p" + std::to_string(rng_() % head) + "(?X)";
      }
      if (head > 0 && (rng_() % 2) == 0) {
        body += ", p" + std::to_string(rng_() % (head + 1)) + "(?Y)";
      }
      out += body + " -> p" + std::to_string(head) + "(?X) .\n";
    }
    return out;
  }

  void FillDatabase(chase::Instance* db, int facts) {
    for (int i = 0; i < facts; ++i) {
      db->AddFact(rng_() % 2 == 0 ? "e0" : "e1", {Constant(), Constant()});
    }
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
    return pred + "(?X, " + (rng_() % 2 == 0 ? v1 : v2) + ")";
  }

  std::mt19937_64 rng_;
};

class JoinStrategySweep : public ::testing::TestWithParam<int> {};

/// The strategy grid on random stratified programs: both join
/// strategies × threads {1, 4} fix the instance the naive fixpoint
/// (kBinary) fixes (plain Datalog: exact ToString, so tuple order too),
/// and the match counts (`rule_firings`, `facts_derived`, `rounds`) are
/// identical across strategies and thread counts — the match SET of
/// every pass is strategy-independent.
TEST_P(JoinStrategySweep, StrategyGridEquivalence) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomDatalog gen(seed);
  auto dict = Dict();
  auto program = datalog::ParseProgram(gen.ProgramText(6), dict);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  chase::Instance db(dict);
  RandomDatalog filler(seed + 7000);
  filler.FillDatabase(&db, 60);  // dense: merge paths engage under kAuto

  chase::ChaseOptions naive;
  naive.seminaive = false;
  naive.join_strategy = chase::JoinStrategy::kBinary;
  chase::Instance naive_db = db.CloneFacts();
  ASSERT_TRUE(RunChase(*program, &naive_db, naive).ok());
  const std::string expected = naive_db.ToString();

  // Reference counters: the first grid cell (kBinary, 1 thread).
  chase::ChaseStats ref_stats;
  bool have_ref = false;
  for (chase::JoinStrategy strategy :
       {chase::JoinStrategy::kBinary, chase::JoinStrategy::kAuto}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      chase::ChaseOptions options;
      options.join_strategy = strategy;
      options.num_threads = threads;
      chase::Instance run_db = db.CloneFacts();
      chase::ChaseStats stats;
      ASSERT_TRUE(RunChase(*program, &run_db, options, &stats).ok());
      std::string label = "strategy=" +
                          std::to_string(static_cast<int>(strategy)) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(run_db.ToString(), expected)
          << label << "\n" << program->ToString();
      if (!have_ref) {
        ref_stats = stats;
        have_ref = true;
      } else {
        EXPECT_EQ(stats.rule_firings, ref_stats.rule_firings) << label;
        EXPECT_EQ(stats.facts_derived, ref_stats.facts_derived) << label;
        EXPECT_EQ(stats.rounds, ref_stats.rounds) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinStrategySweep, ::testing::Range(1, 21));

/// Triangle closure end-to-end through the chase: the 3-atom cyclic
/// rule that kAuto routes to the leapfrog operator, on a random graph,
/// across both strategies and thread counts — identical instances and
/// exact counter equality (plain Datalog).
TEST(MergeJoinChaseTest, TriangleAgreesAcrossStrategiesAndThreads) {
  auto dict = Dict();
  auto program = datalog::ParseProgram(
      "e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> tri(?X, ?Y, ?Z) .", dict);
  ASSERT_TRUE(program.ok());
  chase::Instance db(dict);
  std::mt19937 rng(5);
  for (int i = 0; i < 600; ++i) {
    db.AddFact("e", {"n" + std::to_string(rng() % 40),
                     "n" + std::to_string(rng() % 40)});
  }

  chase::ChaseOptions binary;
  binary.join_strategy = chase::JoinStrategy::kBinary;
  chase::Instance binary_db = db.CloneFacts();
  chase::ChaseStats binary_stats;
  ASSERT_TRUE(RunChase(*program, &binary_db, binary, &binary_stats).ok());
  ASSERT_GT(binary_db.Find("tri")->size(), 0u);

  for (chase::JoinStrategy strategy :
       {chase::JoinStrategy::kBinary, chase::JoinStrategy::kAuto}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      chase::ChaseOptions options;
      options.join_strategy = strategy;
      options.num_threads = threads;
      chase::Instance run_db = db.CloneFacts();
      chase::ChaseStats stats;
      ASSERT_TRUE(RunChase(*program, &run_db, options, &stats).ok());
      std::string label = "strategy=" +
                          std::to_string(static_cast<int>(strategy)) +
                          " threads=" + std::to_string(threads);
      EXPECT_EQ(run_db.ToString(), binary_db.ToString()) << label;
      EXPECT_EQ(stats.rule_firings, binary_stats.rule_firings) << label;
      EXPECT_EQ(stats.facts_derived, binary_stats.facts_derived) << label;
    }
  }
}

/// Transitive closure on a chain — the workload the merge join was
/// built for — derives the same closure with the same exact counters
/// under both strategies. Late semi-naive delta windows fall below
/// kAuto's merge threshold, so there kAuto probes postings where
/// kBinary merges.
TEST(MergeJoinChaseTest, TransitiveClosureAgreesAcrossStrategies) {
  constexpr int kChain = 64;  // > kAutoMergeMinWindow: kAuto merges too
  auto dict = Dict();
  auto program = core::TransitiveClosureProgram(dict);
  chase::Instance db = core::ChainDatabase(kChain, dict);

  chase::ChaseOptions automatic;
  chase::ChaseOptions binary;
  binary.join_strategy = chase::JoinStrategy::kBinary;

  chase::Instance auto_db = db.CloneFacts();
  chase::Instance binary_db = db.CloneFacts();
  chase::ChaseStats auto_stats, binary_stats;
  ASSERT_TRUE(RunChase(program, &auto_db, automatic, &auto_stats).ok());
  ASSERT_TRUE(RunChase(program, &binary_db, binary, &binary_stats).ok());
  EXPECT_EQ(binary_db.Find("tc")->size(),
            static_cast<size_t>(kChain) * (kChain + 1) / 2);
  EXPECT_EQ(binary_db.ToString(), auto_db.ToString());
  EXPECT_EQ(binary_stats.rule_firings, auto_stats.rule_firings);
  EXPECT_EQ(binary_stats.facts_derived, auto_stats.facts_derived);
  EXPECT_EQ(binary_stats.rounds, auto_stats.rounds);
}

/// With old/delta/all partitioning, the exact firing count of the
/// repeated-predicate join (property_test pins 14 on a 4-edge chain)
/// is preserved under the binary plan's merge join.
TEST(MergeJoinChaseTest, RepeatedPredicateFiringsStayExact) {
  auto dict = Dict();
  auto program = datalog::ParseProgram(R"(
    e(?X, ?Y) -> t(?X, ?Y) .
    t(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z) .
  )",
                                       dict);
  ASSERT_TRUE(program.ok());
  chase::Instance db(dict);
  for (int i = 0; i < 4; ++i) {
    db.AddFact("e", {"v" + std::to_string(i), "v" + std::to_string(i + 1)});
  }
  chase::ChaseOptions binary;
  binary.join_strategy = chase::JoinStrategy::kBinary;
  chase::ChaseStats stats;
  ASSERT_TRUE(RunChase(*program, &db, binary, &stats).ok());
  EXPECT_EQ(db.Find("t")->size(), 10u);
  EXPECT_EQ(stats.rule_firings, 14u);
}

}  // namespace
}  // namespace triq
