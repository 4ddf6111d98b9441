// The static analyzer: the termination-verdict lattice (datalog ⊂
// weakly acyclic ⊂ jointly acyclic, kUnknown above), witness cycles,
// the rule reliance graph, the lint pass, and the end-to-end wiring —
// EngineOptions::require_termination_guarantee blocking a divergent
// program before any chase round.
#include "analysis/analyze.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/reliance.h"
#include "analysis/termination.h"
#include "engine/engine.h"
#include "test_util.h"
#include "translate/owl2ql_program.h"
#include "translate/owl2rl_program.h"
#include "translate/vocab_rules.h"

namespace {

using triq::Dictionary;
using triq::analysis::Analyze;
using triq::analysis::AnalyzeTermination;
using triq::analysis::ExistentialGraph;
using triq::analysis::Lint;
using triq::analysis::LintCheck;
using triq::analysis::LintOptions;
using triq::analysis::LintProgram;
using triq::analysis::LintRules;
using triq::analysis::LintSeverity;
using triq::analysis::PositionGraph;
using triq::analysis::ProgramAnalysis;
using triq::analysis::RelianceGraph;
using triq::analysis::Termination;
using triq::analysis::TerminationVerdict;
using triq::test::Dict;
using triq::test::Parse;

bool HasLint(const std::vector<Lint>& lints, LintCheck check, int rule) {
  return std::any_of(lints.begin(), lints.end(), [&](const Lint& l) {
    return l.check == check && l.rule == rule;
  });
}

// ---- Termination lattice ----------------------------------------------

TEST(TerminationTest, DatalogProgramTerminates) {
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    tc(?X, ?Y), edge(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                       dict);
  TerminationVerdict verdict = AnalyzeTermination(program);
  EXPECT_EQ(verdict.termination, Termination::kGuaranteedTerminating);
  EXPECT_EQ(verdict.method, "datalog");
  EXPECT_TRUE(verdict.witness.empty());
}

TEST(TerminationTest, WeaklyAcyclicExistentialTerminates) {
  auto dict = Dict();
  // The invented witness flows only into `work`/`author`, never back
  // into a position that can trigger invention: weakly acyclic.
  auto program = Parse(R"(
    person(?X) -> exists ?W wrote(?X, ?W) .
    wrote(?X, ?W) -> work(?W) .
    wrote(?X, ?W) -> author(?X) .
  )",
                       dict);
  PositionGraph positions(program);
  EXPECT_TRUE(positions.IsWeaklyAcyclic());
  EXPECT_GT(positions.num_ordinary_edges(), 0u);
  EXPECT_GT(positions.num_special_edges(), 0u);
  TerminationVerdict verdict = AnalyzeTermination(program);
  EXPECT_EQ(verdict.termination, Termination::kGuaranteedTerminating);
  EXPECT_EQ(verdict.method, "weak-acyclicity");
}

TEST(TerminationTest, JointAcyclicityRefinesWeakAcyclicity) {
  auto dict = Dict();
  // Krötzsch & Rudolph's separating example: the position graph has the
  // special-edge cycle a[0] => r[1] -> a[0], but ?Y's movement set never
  // reaches a position that feeds ?Y's own rule (b is EDB-only), so the
  // existential dependency graph is acyclic.
  auto program = Parse(R"(
    a(?X) -> exists ?Y r(?X, ?Y) .
    r(?X, ?Y), b(?Y) -> a(?Y) .
  )",
                       dict);
  PositionGraph positions(program);
  EXPECT_FALSE(positions.IsWeaklyAcyclic());
  ExistentialGraph existentials(program);
  EXPECT_TRUE(existentials.IsJointlyAcyclic());
  EXPECT_EQ(existentials.num_existentials(), 1u);
  TerminationVerdict verdict = AnalyzeTermination(program);
  EXPECT_EQ(verdict.termination, Termination::kGuaranteedTerminating);
  EXPECT_EQ(verdict.method, "joint-acyclicity");
}

TEST(TerminationTest, DivergentProgramIsUnknownWithWitness) {
  auto dict = Dict();
  // The classic non-terminating single rule: every null at r[1] forces
  // a fresh null at r[1] — a special self-loop in the position graph.
  auto program = Parse("r(?X, ?Y) -> exists ?Z r(?Y, ?Z) .", dict);
  TerminationVerdict verdict = AnalyzeTermination(program);
  EXPECT_EQ(verdict.termination, Termination::kUnknown);
  EXPECT_TRUE(verdict.method.empty());
  EXPECT_NE(verdict.witness.find("r[1]"), std::string::npos)
      << verdict.witness;
  EXPECT_NE(verdict.witness.find("rule 0"), std::string::npos)
      << verdict.witness;
}

TEST(TerminationTest, VocabularyLibrariesTerminate) {
  // The Section 2 rule libraries and the whole OWL 2 RL program are
  // existential-free, so the cheapest criterion already certifies them.
  auto dict = Dict();
  EXPECT_EQ(AnalyzeTermination(triq::translate::SameAsRules(dict)).method,
            "datalog");
  EXPECT_EQ(AnalyzeTermination(triq::translate::RdfsRules(dict)).method,
            "datalog");
  EXPECT_EQ(
      AnalyzeTermination(triq::translate::BuildOwl2RlProgram(dict)).method,
      "datalog");
}

TEST(TerminationTest, RestrictedChaseOnlyProgramsAreHonestlyUnknown) {
  // τ_owl2ql_core and the owl:Restriction library invent nulls into the
  // same `triple` positions they read — position analysis (which cannot
  // see the restricted chase's satisfaction check) finds special cycles
  // and must answer kUnknown, not a false guarantee. These programs DO
  // terminate under the engine's restricted chase; the verdict is sound
  // (never wrong), just incomplete.
  auto dict = Dict();
  TerminationVerdict core =
      AnalyzeTermination(triq::translate::BuildOwl2QlCoreProgram(dict));
  EXPECT_EQ(core.termination, Termination::kUnknown);
  EXPECT_FALSE(core.witness.empty());
  TerminationVerdict restriction =
      AnalyzeTermination(triq::translate::OnPropertyRules(dict));
  EXPECT_EQ(restriction.termination, Termination::kUnknown);
}

// ---- Reliance graph ---------------------------------------------------

TEST(RelianceGraphTest, EdgesAndCondensationOrder) {
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    tc(?X, ?Y), edge(?Y, ?Z) -> tc(?X, ?Z) .
    tc(?X, ?Y) -> reach(?X) .
  )",
                       dict);
  RelianceGraph reliance(program);
  ASSERT_EQ(reliance.num_rules(), 3u);
  // Rule 0 derives tc, read positively by rules 1 and 2.
  EXPECT_EQ(reliance.PositiveReliers(0), (std::vector<uint32_t>{1, 2}));
  // Rule 1 is recursive (relies on itself) and feeds rule 2.
  EXPECT_EQ(reliance.PositiveReliers(1), (std::vector<uint32_t>{1, 2}));
  // Nothing reads `reach`.
  EXPECT_TRUE(reliance.PositiveReliers(2).empty());
  EXPECT_TRUE(reliance.NegativeReliers(0).empty());
  // Three singleton groups in topological (producer-first) order.
  EXPECT_EQ(reliance.num_groups(), 3u);
  EXPECT_LT(reliance.GroupOf(0), reliance.GroupOf(2));
  EXPECT_LT(reliance.GroupOf(1), reliance.GroupOf(2));
}

TEST(RelianceGraphTest, MutualRecursionLandsInOneGroup) {
  auto dict = Dict();
  auto program = Parse(R"(
    base(?X, ?Y) -> p(?X, ?Y) .
    p(?X, ?Y) -> q(?Y, ?X) .
    q(?X, ?Y) -> p(?X, ?Y) .
  )",
                       dict);
  RelianceGraph reliance(program);
  EXPECT_EQ(reliance.GroupOf(1), reliance.GroupOf(2));
  EXPECT_LT(reliance.GroupOf(0), reliance.GroupOf(1));
  EXPECT_EQ(reliance.num_groups(), 2u);
}

TEST(RelianceGraphTest, NegativeRelianceIsTrackedSeparately) {
  auto dict = Dict();
  auto program = Parse(R"(
    src(?X) -> reached(?X) .
    node(?X), not reached(?X) -> isolated(?X) .
  )",
                       dict);
  RelianceGraph reliance(program);
  EXPECT_EQ(reliance.NegativeReliers(0), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(reliance.PositiveReliers(0).empty());
}

// ---- Lint pass --------------------------------------------------------

TEST(LintTest, CleanProgramHasNoFindings) {
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    tc(?X, ?Y), edge(?Y, ?Z) -> tc(?X, ?Z) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("tc"));
  EXPECT_TRUE(LintProgram(program, options).empty());
}

TEST(LintTest, UnsafeNegationIsAnError) {
  // Program::AddRule would reject this rule, which is exactly why
  // LintRules works on raw vectors: the linter must be able to explain
  // rules the loader refuses.
  auto dict = Dict();
  triq::datalog::Rule rule;
  auto var = [&](const char* name) {
    return triq::datalog::Term::Variable(dict->Intern(name));
  };
  rule.body.push_back({dict->Intern("p"), {var("?X")}, false});
  rule.body.push_back({dict->Intern("q"), {var("?Y")}, true});
  rule.head.push_back({dict->Intern("s"), {var("?X")}, false});
  std::vector<Lint> lints = LintRules({rule}, *dict);
  ASSERT_TRUE(HasLint(lints, LintCheck::kUnsafeNegation, 0));
  EXPECT_EQ(lints[0].severity, LintSeverity::kError);
  EXPECT_NE(lints[0].message.find("?Y"), std::string::npos);
}

TEST(LintTest, ArityMismatchIsAnError) {
  auto dict = Dict();
  auto program = Parse(R"(
    p(?X, ?Y) -> q(?X) .
    p(?X) -> r(?X) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("q"));
  options.output_predicates.insert(dict->Intern("r"));
  std::vector<Lint> lints = LintProgram(program, options);
  ASSERT_TRUE(HasLint(lints, LintCheck::kArityMismatch, 1));
  EXPECT_NE(lints[0].message.find("'p'"), std::string::npos);
}

TEST(LintTest, ImplicitExistentialIsAWarningDeclaredIsNot) {
  auto dict = Dict();
  auto program = Parse(R"(
    person(?X) -> wrote(?X, ?W) .
    person(?X) -> exists ?V owns(?X, ?V) .
    wrote(?X, ?W), owns(?X, ?V) -> ok(?X) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("ok"));
  std::vector<Lint> lints = LintProgram(program, options);
  EXPECT_TRUE(HasLint(lints, LintCheck::kImplicitExistential, 0));
  EXPECT_FALSE(HasLint(lints, LintCheck::kImplicitExistential, 1));
}

TEST(LintTest, UnusedAndUnderivablePredicates) {
  auto dict = Dict();
  auto program = Parse(R"(
    ghost(?X) -> derived(?X) .
    input(?X) -> answer(?X) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("answer"));
  options.edb_known = true;
  options.edb_predicates.insert(dict->Intern("input"));
  std::vector<Lint> lints = LintProgram(program, options);
  // `derived` is written but never read; `ghost` is read but neither
  // derived nor in the database. `answer` (output) and `input` (EDB)
  // are exempt.
  EXPECT_TRUE(HasLint(lints, LintCheck::kUnusedPredicate, 0));
  EXPECT_TRUE(HasLint(lints, LintCheck::kUnderivablePredicate, 0));
  EXPECT_EQ(lints.size(), 2u);
}

TEST(LintTest, ShadowedRuleDetectedAcrossDictionaries) {
  // The shadow program lives in its own dictionary: detection must work
  // on structure (canonical variable renaming), not symbol ids.
  auto shadow_dict = Dict();
  auto shadow = Parse(
      "triple(?A, subClassOf, ?B), triple(?X, type, ?A)"
      " -> triple(?X, type, ?B) .",
      shadow_dict);
  auto dict = Dict();
  auto program = Parse(R"(
    triple(?C, subClassOf, ?D), triple(?I, type, ?C)
      -> triple(?I, type, ?D) .
    triple(?X, knows, ?Y) -> triple(?Y, knows, ?X) .
  )",
                       dict);
  LintOptions options;
  options.shadow_program = &shadow;
  std::vector<Lint> lints = LintProgram(program, options);
  EXPECT_TRUE(HasLint(lints, LintCheck::kShadowedRule, 0));
  EXPECT_FALSE(HasLint(lints, LintCheck::kShadowedRule, 1));
}

TEST(LintTest, DuplicateRuleUpToRenamingIsAWarning) {
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    tc(?X, ?Y), edge(?Y, ?Z) -> tc(?X, ?Z) .
    edge(?A, ?B) -> tc(?A, ?B) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("tc"));
  std::vector<Lint> lints = LintProgram(program, options);
  ASSERT_TRUE(HasLint(lints, LintCheck::kDuplicateRule, 2));
  EXPECT_FALSE(HasLint(lints, LintCheck::kDuplicateRule, 0));
  EXPECT_FALSE(HasLint(lints, LintCheck::kDuplicateRule, 1));
  EXPECT_EQ(lints[0].severity, LintSeverity::kWarning);
  // The finding names the first occurrence it duplicates.
  EXPECT_NE(lints[0].message.find("rule 0"), std::string::npos);
}

TEST(LintTest, StructurallyDistinctRulesAreNotDuplicates) {
  // Swapping the variable roles is a different rule even though a
  // set-of-atoms comparison would conflate them: identity is canonical
  // first-occurrence renaming, exactly like shadow detection.
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> reach(?X, ?Y) .
    edge(?Y, ?X) -> reach(?X, ?Y) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("reach"));
  std::vector<Lint> lints = LintProgram(program, options);
  EXPECT_FALSE(HasLint(lints, LintCheck::kDuplicateRule, 1));
}

TEST(LintTest, DuplicateDetectionSkipsTheExemptPrefix) {
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> reach(?X, ?Y) .
    edge(?A, ?B) -> reach(?A, ?B) .
  )",
                       dict);
  LintOptions options;
  options.exempt_prefix = 1;  // rule 0 is engine-attached
  options.output_predicates.insert(dict->Intern("reach"));
  std::vector<Lint> lints = LintProgram(program, options);
  // Rule 1 is the FIRST non-exempt occurrence, not a duplicate; overlap
  // with the core is the shadow check's job, not this one's.
  EXPECT_FALSE(HasLint(lints, LintCheck::kDuplicateRule, 1));
}

TEST(LintTest, RecursionThroughNegationIsAProgramError) {
  auto dict = Dict();
  auto program = Parse(R"(
    node(?X), not q(?X) -> p(?X) .
    node(?X), not p(?X) -> q(?X) .
  )",
                       dict);
  LintOptions options;
  options.output_predicates.insert(dict->Intern("p"));
  options.output_predicates.insert(dict->Intern("q"));
  std::vector<Lint> lints = LintProgram(program, options);
  ASSERT_TRUE(HasLint(lints, LintCheck::kNotStratified, -1));
  EXPECT_EQ(lints[0].severity, LintSeverity::kError);
  EXPECT_NE(lints[0].message.find("rule"), std::string::npos);
}

TEST(LintTest, ExemptPrefixSuppressesPerRuleFindingsButKeepsUsage) {
  auto dict = Dict();
  auto program = Parse(R"(
    person(?X) -> wrote(?X, ?W) .
    wrote(?X, ?W) -> author(?X) .
  )",
                       dict);
  LintOptions options;
  options.exempt_prefix = 1;  // rule 0 is "engine-attached"
  options.output_predicates.insert(dict->Intern("author"));
  std::vector<Lint> lints = LintProgram(program, options);
  // Rule 0's implicit existential is exempt, and `wrote` counts as
  // derived for rule 1 even though its deriving rule is exempt.
  EXPECT_TRUE(lints.empty()) << triq::analysis::LintToString(lints[0]);
}

// ---- Analyze + Report -------------------------------------------------

TEST(AnalyzeTest, ReportCarriesVerdictShapeAndFindings) {
  auto dict = Dict();
  auto program = Parse(R"(
    edge(?X, ?Y) -> tc(?X, ?Y) .
    tc(?X, ?Y), edge(?Y, ?Z) -> tc(?X, ?Z) .
    tc(?X, ?Y) -> top(?X) .
  )",
                       dict);
  ProgramAnalysis analysis = Analyze(program);
  EXPECT_EQ(analysis.verdict.termination,
            Termination::kGuaranteedTerminating);
  EXPECT_EQ(analysis.num_rules, 3u);
  EXPECT_TRUE(analysis.stratified);
  EXPECT_EQ(analysis.num_strata, 1u);
  EXPECT_EQ(analysis.num_rule_groups, 3u);
  EXPECT_FALSE(analysis.HasErrors());
  EXPECT_EQ(analysis.CountSeverity(LintSeverity::kWarning), 1u);
  std::string report = analysis.Report();
  EXPECT_NE(report.find("guaranteed-terminating (datalog)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("unused-predicate"), std::string::npos) << report;
}

// ---- Engine wiring ----------------------------------------------------

TEST(EngineAnalysisTest, TerminationGuaranteeBlocksBeforeAnyChaseRound) {
  triq::Engine engine(
      triq::EngineOptions().SetRequireTerminationGuarantee(true));
  ASSERT_TRUE(engine.AddTriple("a", "r", "b").ok());
  ASSERT_TRUE(
      engine.AttachRules("triple(?X, r, ?Y) -> exists ?Z triple(?Y, r, ?Z) .")
          .ok());
  auto stats = engine.Materialize();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), triq::StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("triple[2]"), std::string::npos)
      << stats.status().ToString();
  // Rejected statically: no chase ran, nothing was published.
  EXPECT_EQ(engine.materializations(), 0u);
  EXPECT_FALSE(engine.IsMaterialized());
}

TEST(EngineAnalysisTest, TerminationGuaranteeAdmitsProvablePrograms) {
  triq::Engine engine(
      triq::EngineOptions().SetRequireTerminationGuarantee(true));
  ASSERT_TRUE(engine.AddTriple("a", "e", "b").ok());
  ASSERT_TRUE(engine.AddTriple("b", "e", "c").ok());
  ASSERT_TRUE(engine.AttachRules(R"(
    triple(?X, e, ?Y) -> tc(?X, ?Y) .
    tc(?X, ?Y), triple(?Y, e, ?Z) -> tc(?X, ?Z) .
  )")
                  .ok());
  auto stats = engine.Materialize();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->termination, Termination::kGuaranteedTerminating);
  EXPECT_EQ(stats->strata, 1u);
  auto answers = engine.Answers("tc");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 3u);
}

TEST(EngineAnalysisTest, AnalyzeProgramUsesSessionEdbAndOutputs) {
  triq::Engine engine;
  ASSERT_TRUE(engine.AddTriple("a", "e", "b").ok());
  ASSERT_TRUE(engine.AttachRules(R"(
    triple(?X, e, ?Y) -> tc(?X, ?Y) .
    missing(?X) -> tc(?X, ?X) .
  )")
                  .ok());
  ProgramAnalysis analysis = engine.AnalyzeProgram({"tc"});
  EXPECT_EQ(analysis.verdict.termination,
            Termination::kGuaranteedTerminating);
  EXPECT_FALSE(analysis.HasErrors());
  // `triple` is in the loaded base (EDB), `tc` is declared an output:
  // the only finding is the underivable `missing`.
  ASSERT_EQ(analysis.lints.size(), 1u);
  EXPECT_EQ(analysis.lints[0].check, LintCheck::kUnderivablePredicate);
  // AnalyzeProgram never materializes.
  EXPECT_EQ(engine.materializations(), 0u);
}

TEST(EngineAnalysisTest, CoreRulesAreExemptUnderReasoningRegimes) {
  triq::Engine engine(
      triq::EngineOptions().SetRegime(triq::EntailmentRegime::kActiveDomain));
  ProgramAnalysis analysis = engine.AnalyzeProgram();
  // The attached τ_owl2ql_core alone: every rule is exempt, so the only
  // admissible findings are program-level ones (there are none — the
  // core is stratified).
  EXPECT_FALSE(analysis.HasErrors());
  EXPECT_TRUE(analysis.lints.empty());
  // A user rule duplicating a core rule (sc-transitivity, renamed
  // variables) is flagged as shadowed.
  ASSERT_TRUE(
      engine.AttachRules("sc(?A, ?B), sc(?B, ?C) -> sc(?A, ?C) .").ok());
  ProgramAnalysis with_user = engine.AnalyzeProgram();
  EXPECT_TRUE(HasLint(with_user.lints, LintCheck::kShadowedRule,
                      static_cast<int>(with_user.num_rules) - 1));
}

}  // namespace
