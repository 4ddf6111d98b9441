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

/// Plan-shape coverage for the two-strategy grids: JoinPlan::Explain shows
/// kAuto still planning merge, posting-probe, find-index and leapfrog
/// access paths on the shapes built for them, and kBinary never planning
/// leapfrog — so the {kAuto, kBinary} sweeps reach every access path.
/// EXPLAIN renders the plan the executor runs: a kAuto driver window
/// too small to amortize its sort probes postings instead of merging,
/// and a fully bound driver is one dedup-table lookup.
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
  for (int i = 0; i < 10; ++i) {
    db.AddFact("s", {"a" + std::to_string(i), "b" + std::to_string(i)});
  }
  auto plan = [&](std::string_view rule_text, chase::JoinStrategy strategy) {
    chase::MatchOptions options;
    options.join_strategy = strategy;
    datalog::Rule rule = ParseR(rule_text, dict.get());
    return chase::JoinPlan(rule, db, options).Explain();
  };
  auto has = [](const std::string& text, std::string_view needle) {
    return text.find(needle) != std::string::npos;
  };
  const std::string_view kMergeJoin = "e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)";
  const std::string_view kProbe = "e(a1, ?Y), f(?Y, ?Z) -> g(?Z)";
  const std::string_view kGround = "e(a1, ?Y), f(?Y, c2) -> g(?Y)";
  const std::string_view kSmallDriver = "s(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)";
  const std::string_view kGroundDriver = "e(a1, b2), f(b2, ?Z) -> g(?Z)";
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
  EXPECT_TRUE(has(probe, "strategy: postings (auto)")) << probe;
  std::string ground = plan(kGround, chase::JoinStrategy::kAuto);
  EXPECT_TRUE(has(ground, "find-index")) << ground;
  std::string small = plan(kSmallDriver, chase::JoinStrategy::kAuto);
  EXPECT_TRUE(has(small, "strategy: postings (auto)")) << small;
  EXPECT_TRUE(has(small, "0: s(?X, ?Y)  scan")) << small;
  EXPECT_TRUE(has(small, "1: f(?Y, ?Z)  postings")) << small;
  EXPECT_FALSE(has(small, "merge")) << small;
  EXPECT_FALSE(has(small, "sorted-scan")) << small;
  std::string ground_driver = plan(kGroundDriver, chase::JoinStrategy::kAuto);
  EXPECT_TRUE(has(ground_driver, "0: e(a1, b2)  find-index")) << ground_driver;
  for (std::string_view shape : {kTriangle, kChain}) {
    std::string text = plan(shape, chase::JoinStrategy::kAuto);
    EXPECT_TRUE(has(text, "strategy: leapfrog (auto)")) << text;
    EXPECT_TRUE(has(text, "leapfrog[")) << text;
  }

  for (std::string_view shape : {kMergeJoin, kProbe, kGround, kSmallDriver,
                                  kGroundDriver, kTriangle, kChain}) {
    std::string text = plan(shape, chase::JoinStrategy::kBinary);
    EXPECT_TRUE(has(text, "(binary)")) << text;
    EXPECT_FALSE(has(text, "leapfrog")) << text;
  }
  EXPECT_TRUE(has(plan(kMergeJoin, chase::JoinStrategy::kBinary),
                  "strategy: merge (binary)"));
  // kBinary merges whatever the driver window's size.
  EXPECT_TRUE(has(plan(kSmallDriver, chase::JoinStrategy::kBinary),
                  "strategy: merge (binary)"));
  EXPECT_TRUE(
      has(plan(kTriangle, chase::JoinStrategy::kBinary), "merge-cursor"));
}

/// A conjunction with an empty positive atom cannot match, so its plan
/// builds no index: no lex permutation for a leapfrog residual, no
/// sorted driver window or merge-cursor permutation, no posting sync —
/// while EXPLAIN keeps the access paths it would run. Each case plans
/// over a fresh instance, so any build would count sort work.
TEST(EmptyPlanTest, EmptyAtomBuildsNoIndexAndFindsNoMatch) {
  auto fill = [](chase::Instance* db) {
    std::mt19937 rng(3);
    for (int i = 0; i < 400; ++i) {
      db->AddFact("e", {"v" + std::to_string(rng() % 40),
                        "v" + std::to_string(rng() % 40)});
      db->AddFact("f", {"v" + std::to_string(rng() % 40),
                        "w" + std::to_string(rng() % 40)});
    }
  };
  struct Case {
    std::string_view rule;
    std::vector<size_t> atom_end;  // empty windows via atom_end = 0
    int delta_body_index;
    std::string_view label;  // an access path EXPLAIN must still show
  };
  const Case cases[] = {
      // Leapfrog triangle: the empty atom is ordered first…
      {"e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> t(?X)",
       {chase::kNoTupleLimit, chase::kNoTupleLimit, 0}, -1, "leapfrog["},
      // …or sits in the residual below a non-empty delta driver.
      {"e(?X, ?Y), e(?Y, ?Z), e(?Z, ?X) -> t(?X)",
       {chase::kNoTupleLimit, chase::kNoTupleLimit, 0}, 0, "leapfrog["},
      // An absent relation in the residual.
      {"e(?X, ?Y), e(?Y, ?Z), absent(?Z, ?X) -> t(?X)", {}, 0, "leapfrog["},
      // Merge-cursor shape: sorted driver window over e, cursor over f.
      {"e(?X, ?Y), f(?Y, ?Z) -> g(?X, ?Z)", {chase::kNoTupleLimit, 0}, 0,
       "merge-cursor(pos 0)"},
      // A driver with a constant reads postings; the probed atom below
      // it is empty.
      {"e(v1, ?Y), f(?Y, ?Z) -> g(?Z)", {chase::kNoTupleLimit, 0}, 0,
       "0: e(v1, ?Y)  postings"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.rule) + " delta " +
                 std::to_string(c.delta_body_index));
    auto dict = Dict();
    chase::Instance db(dict);
    fill(&db);
    datalog::Rule rule = ParseR(c.rule, dict.get());
    chase::MatchOptions options;
    options.atom_end = c.atom_end;
    options.delta_body_index = c.delta_body_index;
    const uint64_t before = chase::TuplesSortedOnThisThread();
    const chase::JoinPlan plan(rule, db, options);
    EXPECT_EQ(plan.driver_size(), 0u);
    plan.FreezeIndexes();
    size_t matches = 0;
    Status status = plan.Run(0, plan.driver_size(), [&](const chase::Match&) {
      ++matches;
      return true;
    });
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(matches, 0u);
    EXPECT_EQ(chase::TuplesSortedOnThisThread(), before);
    const std::string explain = plan.Explain();
    EXPECT_NE(explain.find(c.label), std::string::npos) << explain;
  }
}

TEST(EmptyPlanTest, AtomProbeOverAnEmptyWindowBuildsNoIndex) {
  auto dict = Dict();
  chase::Instance db(dict);
  for (int i = 0; i < 100; ++i) {
    db.AddFact("e", {"v" + std::to_string(i % 7), "v" + std::to_string(i)});
  }
  datalog::Rule rule = ParseR("e(?X, ?Y) -> g(?X)", dict.get());
  const datalog::Atom& atom = rule.body[0];
  const datalog::Term x = atom.args[0];
  chase::Binding seed;
  seed.Bind(x, datalog::Term::Constant(dict->Intern("v3")));
  const uint64_t before = chase::TuplesSortedOnThisThread();
  chase::AtomProbe probe(atom, db, seed, /*window_end=*/0);
  EXPECT_FALSE(probe.HasMatch(seed));
  EXPECT_EQ(chase::TuplesSortedOnThisThread(), before);
  // The same probe over the whole relation finds the witness.
  chase::AtomProbe full(atom, db, seed, db.Find("e")->size());
  EXPECT_TRUE(full.HasMatch(seed));
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

TEST(MergeJoinMatchTest, GallopingPostingIntersectionUnderWindows) {
  // Two e(x, y, w) facts per i < 10,000. The first has x = a (a 10k
  // posting list) and y = b at three i, y = c at the last i; the second
  // has x = d on even i and y = m on multiples of 3, a denser pair whose
  // intersection is every sixth i. Seeding x and y makes the matcher
  // intersect the two posting lists, galloping the longer; the windows
  // start and end inside both lists.
  constexpr int kTuples = 10000;
  auto dict = Dict();
  chase::Instance db(dict);
  for (int i = 0; i < kTuples; ++i) {
    std::string y = "y" + std::to_string(i);
    if (i == 2500 || i == 6000 || i == 9100) y = "b";
    if (i == kTuples - 1) y = "c";
    db.AddFact("e", {"a", y, "w" + std::to_string(i)});
    db.AddFact("e", {i % 2 == 0 ? "d" : "o" + std::to_string(i),
                     i % 3 == 0 ? "m" : "n" + std::to_string(i),
                     "w" + std::to_string(i)});
  }
  const chase::Relation* rel = db.Find("e");
  ASSERT_NE(rel, nullptr);
  datalog::Rule rule = ParseR("e(?X, ?Y, ?W) -> p(?W)", dict.get());
  const datalog::Term x = rule.body[0].args[0];
  const datalog::Term y = rule.body[0].args[1];
  auto constant = [&](const char* name) {
    return chase::Term::Constant(dict->Intern(name));
  };
  const std::pair<size_t, size_t> windows[] = {
      {0, 2 * kTuples},    {4000, 12001},  {5001, 18200},
      {12000, 12001},      {18201, 2 * kTuples}, {3, 5},
  };
  for (auto [xv, yv] : {std::pair{"a", "b"}, std::pair{"a", "c"},
                        std::pair{"d", "m"}, std::pair{"d", "b"}}) {
    chase::Binding seed;
    seed.Bind(x, constant(xv));
    seed.Bind(y, constant(yv));
    for (auto [begin, end] : windows) {
      chase::MatchOptions automatic;
      automatic.seed = &seed;
      automatic.delta_body_index = 0;
      automatic.delta_begin = begin;
      automatic.delta_end = end;
      chase::MatchOptions binary = automatic;
      binary.join_strategy = chase::JoinStrategy::kBinary;
      // Independent oracle: a scan of the window.
      size_t scanned = 0;
      for (size_t i = begin; i < std::min(end, rel->size()); ++i) {
        chase::TupleView t = rel->tuple(i);
        if (t[0] == constant(xv) && t[1] == constant(yv)) ++scanned;
      }
      auto expected = MatchFingerprint(rule, db, binary);
      EXPECT_EQ(expected.size(), scanned)
          << xv << "," << yv << " window [" << begin << ", " << end << ")";
      EXPECT_EQ(MatchFingerprint(rule, db, automatic), expected)
          << xv << "," << yv << " window [" << begin << ", " << end << ")";
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
