// Experiment E13 (ablation): chase strategy choices called out in
// DESIGN.md — semi-naive vs naive rounds, and restricted vs oblivious
// existential firing. Semi-naive should win increasingly with chain
// length; oblivious pays for duplicated witnesses.
#include <benchmark/benchmark.h>

#include <memory>

#include "chase/chase.h"
#include "core/triq.h"
#include "core/workloads.h"
#include "datalog/parser.h"

namespace {

using triq::Dictionary;

void RunTc(benchmark::State& state, bool seminaive,
           triq::chase::JoinStrategy join_strategy =
               triq::chase::JoinStrategy::kAuto) {
  int n = static_cast<int>(state.range(0));
  auto dict = std::make_shared<Dictionary>();
  auto program = triq::core::TransitiveClosureProgram(dict);
  triq::chase::Instance base = triq::core::ChainDatabase(n, dict);
  triq::chase::ChaseOptions options;
  options.seminaive = seminaive;
  options.join_strategy = join_strategy;
  size_t rounds = 0;
  size_t firings = 0;
  for (auto _ : state) {
    triq::chase::Instance db = triq::core::CloneInstance(base);
    triq::chase::ChaseStats stats;
    auto status = RunChase(program, &db, options, &stats);
    if (!status.ok()) state.SkipWithError("chase failed");
    rounds = stats.rounds;
    firings = stats.rule_firings;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["firings"] = static_cast<double>(firings);
}

void BM_SeminaiveTc(benchmark::State& state) { RunTc(state, true); }
BENCHMARK(BM_SeminaiveTc)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_NaiveTc(benchmark::State& state) { RunTc(state, false); }
BENCHMARK(BM_NaiveTc)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---- Join-strategy ablation: planner vs binary plan -----------------
//
// The same semi-naive passes under the written-order binary plan
// (kBinary: depth-1 merge cursor, posting probes below, no leapfrog);
// BM_SeminaiveTc above is its kAuto counterpart.

void BM_BinaryJoinTc(benchmark::State& state) {
  RunTc(state, true, triq::chase::JoinStrategy::kBinary);
}
BENCHMARK(BM_BinaryJoinTc)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void RunExistential(benchmark::State& state,
                    triq::chase::ChaseOptions::Mode mode) {
  int n = static_cast<int>(state.range(0));
  auto dict = std::make_shared<Dictionary>();
  // Every person needs an acquaintance; half of them already have one
  // in the database, so the restricted chase invents half as many nulls
  // as the oblivious chase.
  auto program = triq::datalog::ParseProgram(R"(
    person(?X) -> exists ?Y knows(?X, ?Y) .
    knows(?X, ?Y) -> connected(?X) .
  )",
                                             dict);
  if (!program.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  triq::chase::ChaseOptions options;
  options.mode = mode;
  size_t nulls = 0;
  for (auto _ : state) {
    triq::chase::Instance db(dict);
    for (int i = 0; i < n; ++i) {
      db.AddFact("person", {"p" + std::to_string(i)});
      if (i % 2 == 0) {
        db.AddFact("knows", {"p" + std::to_string(i),
                             "w" + std::to_string(i)});
      }
    }
    triq::chase::ChaseStats stats;
    auto status = RunChase(*program, &db, options, &stats);
    if (!status.ok()) state.SkipWithError("chase failed");
    nulls = stats.nulls_created;
  }
  state.counters["nulls"] = static_cast<double>(nulls);
}

void BM_RestrictedExistential(benchmark::State& state) {
  RunExistential(state, triq::chase::ChaseOptions::Mode::kRestricted);
}
BENCHMARK(BM_RestrictedExistential)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_ObliviousExistential(benchmark::State& state) {
  RunExistential(state, triq::chase::ChaseOptions::Mode::kOblivious);
}
BENCHMARK(BM_ObliviousExistential)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Join-order ablation: cost-ordered (kAuto) vs written order -----

void RunJoinOrder(benchmark::State& state,
                  triq::chase::JoinStrategy join_strategy) {
  int n = static_cast<int>(state.range(0));
  auto dict = std::make_shared<Dictionary>();
  // A rule written selective-atom-LAST, so the written order (kBinary)
  // starts with the huge relation while kAuto starts from the constant.
  auto program = triq::datalog::ParseProgram(R"(
    e(?X, ?Y), e(?Y, ?Z), start(?X) -> reach2(?X, ?Z) .
  )",
                                             dict);
  if (!program.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  triq::chase::Instance base(dict);
  for (int i = 0; i < n; ++i) {
    base.AddFact("e", {"v" + std::to_string(i),
                       "v" + std::to_string((i * 7 + 1) % n)});
  }
  base.AddFact("start", {"v0"});
  triq::chase::ChaseOptions options;
  options.join_strategy = join_strategy;
  for (auto _ : state) {
    triq::chase::Instance db = triq::core::CloneInstance(base);
    auto status = RunChase(*program, &db, options);
    if (!status.ok()) state.SkipWithError("chase failed");
    benchmark::DoNotOptimize(db);
  }
}

void BM_GreedyJoinOrder(benchmark::State& state) {
  RunJoinOrder(state, triq::chase::JoinStrategy::kAuto);
}
BENCHMARK(BM_GreedyJoinOrder)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_WrittenJoinOrder(benchmark::State& state) {
  RunJoinOrder(state, triq::chase::JoinStrategy::kBinary);
}
BENCHMARK(BM_WrittenJoinOrder)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
