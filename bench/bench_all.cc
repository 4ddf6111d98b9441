// bench_all — the repo's perf-trajectory recorder.
//
// Runs a fixed set of representative workloads through bench/harness.h
// and writes one BENCH_<suite>.json per suite so each PR's perf claims
// are recorded in-repo and diffable across commits.
//
// Usage:
//   bench_all [--quick] [--large] [--out DIR] [--suite NAME]
//
//   --quick       tiny warmup/repetition counts and small workload
//                 sizes; used by the ctest smoke run and CI
//   --large       with --quick: additionally run the tc_chain/4096
//                 single- and 4-thread workloads so the Release CI job
//                 can gate them (no effect on full runs, which always
//                 include the thread sweep)
//   --out DIR     directory for the BENCH_*.json files (default ".";
//                 created if missing)
//   --suite NAME  run only the named suite
//                 (chase | vocab | transport | engine)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness.h"

#include <sstream>

#include "chase/chase.h"
#include "chase/fact_dump.h"
#include "chase/instance.h"
#include "common/dictionary.h"
#include "core/triq.h"
#include "core/workloads.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "translate/vocab_rules.h"

namespace {

using triq::Dictionary;
using triq::bench::Harness;
using triq::bench::HarnessOptions;

struct Config {
  bool quick = false;
  bool large = false;
  std::string out_dir = ".";
  std::string only_suite;  // empty = all
};

// ---- suite: chase -----------------------------------------------------
//
// Transitive closure over chains (the Theorem 6.7 PTime scaling shape)
// plus the Example 4.3 k-clique query on complete graphs.
void SuiteChase(const Config& config, const HarnessOptions& options) {
  Harness harness(options);

  // Quick mode keeps tc_chain/256 and /1024 so the CI regression gate
  // (tools/check_bench_regression.py) can compare them against the
  // committed baseline JSON — 1024 is the tight perf gate (big enough
  // that run-to-run noise stays small relative to the median). A
  // (size, threads) pair with threads > 1 runs the parallel sharded
  // executor and is named chase/tc_chain/<n>/t<threads>; the full run
  // sweeps threads on 4096 so the single- vs multi-thread medians are
  // diffable from one BENCH_chase.json.
  std::vector<std::pair<int, size_t>> tc_runs;
  if (config.quick) {
    tc_runs = {{64, 1}, {256, 1}, {1024, 1}};
    if (config.large) {
      tc_runs.push_back({4096, 1});
      tc_runs.push_back({4096, 4});
    }
  } else {
    tc_runs = {{256, 1}, {1024, 1}, {4096, 1},
               {4096, 2}, {4096, 4}, {4096, 8}};
  }
  for (auto [n, threads] : tc_runs) {
    // Setup (dictionary, program, chain database) happens once, outside
    // the timed region. RunChase mutates its instance, so each timed
    // repetition chases a fresh clone; the O(n) clone is inside the
    // timing but is dominated by the O(n^2) chase.
    auto dict = std::make_shared<Dictionary>();
    auto program = triq::core::TransitiveClosureProgram(dict);
    auto db = triq::core::ChainDatabase(n, dict);
    std::string name = "chase/tc_chain/" + std::to_string(n);
    if (threads > 1) name += "/t" + std::to_string(threads);
    triq::chase::ChaseOptions chase_options;
    chase_options.num_threads = threads;
    harness.Run(name, [&](std::map<std::string, double>* counters) {
      triq::chase::Instance work = triq::core::CloneInstance(db);
      triq::chase::ChaseStats stats;
      triq::Status st =
          triq::chase::RunChase(program, &work, chase_options, &stats);
      if (!st.ok()) std::abort();
      (*counters)["facts_derived"] =
          static_cast<double>(stats.facts_derived);
    });
  }

  // Materialize-once / query-many amortization (both modes; CI gates
  // the session benchmark). One engine session loads the 1024-chain,
  // materializes the closure once, and answers kEvaluations prepared
  // queries — the median should sit just above one chase/tc_chain/1024.
  // The load deliberately goes through the foreign-dictionary merge
  // path (the chain is built over its own dict), so the timed region is
  // a full cold session bootstrap: re-intern + append + materialize +
  // amortized queries.
  // The per_query companion answers the same query kEvaluations times
  // through TriqQuery::Evaluate (one full chase each), which is what
  // every caller had to do before the engine existed: its median is the
  // N× cost the session API amortizes away.
  {
    constexpr int kN = 1024;
    constexpr int kEvaluations = 8;
    const std::string query_rule =
        "tc(?X, v" + std::to_string(kN) + ") -> query(?X) .";
    auto dict = std::make_shared<Dictionary>();
    auto db = triq::core::ChainDatabase(kN, dict);
    harness.Run("chase/engine_tc_chain/" + std::to_string(kN),
                [&](std::map<std::string, double>* counters) {
                  triq::Engine engine;
                  if (!engine.LoadDatabase(db.CloneFacts()).ok()) {
                    std::abort();
                  }
                  if (!engine
                           .AttachProgram(triq::core::
                                              TransitiveClosureProgram(
                                                  engine.dict_ptr()))
                           .ok()) {
                    std::abort();
                  }
                  auto materialize = engine.Materialize();
                  if (!materialize.ok()) std::abort();
                  auto query = engine.Prepare(query_rule, "query");
                  if (!query.ok()) std::abort();
                  size_t answers = 0;
                  for (int e = 0; e < kEvaluations; ++e) {
                    auto result = query->Evaluate();
                    if (!result.ok()) std::abort();
                    answers = result->size();
                  }
                  (*counters)["facts_derived"] =
                      static_cast<double>(materialize->facts_derived);
                  (*counters)["evaluations"] = kEvaluations;
                  (*counters)["answers"] = static_cast<double>(answers);
                });

    // The per-query baseline costs kEvaluations full chases per
    // repetition, which is prohibitive under the sanitizer jobs' quick
    // smoke — run it in full mode and in the Release gate's
    // `--quick --large` configuration only.
    if (!config.quick || config.large) {
      auto program = triq::core::TransitiveClosureProgram(dict);
      auto user = triq::datalog::ParseProgram(query_rule, dict);
      if (!user.ok() || !program.Append(*user).ok()) std::abort();
      auto query =
          triq::core::TriqQuery::Create(std::move(program), "query");
      if (!query.ok()) std::abort();
      harness.Run("chase/per_query_tc_chain/" + std::to_string(kN),
                  [&](std::map<std::string, double>* counters) {
                    size_t answers = 0;
                    for (int e = 0; e < kEvaluations; ++e) {
                      auto result = query->Evaluate(db);
                      if (!result.ok()) std::abort();
                      answers = result->size();
                    }
                    (*counters)["evaluations"] = kEvaluations;
                    (*counters)["answers"] = static_cast<double>(answers);
                  });
    }
  }

  // Quick mode includes clique/7 because CI gates it against the
  // committed baseline alongside tc_chain/256.
  for (int n : config.quick ? std::vector<int>{5, 7}
                            : std::vector<int>{6, 7}) {
    int k = 3;
    auto dict = std::make_shared<Dictionary>();
    auto db = triq::core::CliqueDatabase(
        n, triq::core::CompleteGraphEdges(n), k, dict);
    auto query = triq::core::TriqQuery::Create(
        triq::core::CliqueProgram(dict), "yes");
    if (!query.ok()) std::abort();
    harness.Run("chase/clique_k3_complete/" + std::to_string(n),
                [&](std::map<std::string, double>* counters) {
                  auto answers = query->Evaluate(db);
                  if (!answers.ok()) std::abort();
                  (*counters)["answers"] =
                      static_cast<double>(answers->size());
                });
  }

  // Multi-join planner workloads: triangle enumeration (3-atom cyclic
  // join) over a mostly-bipartite random graph and a 4-atom path query
  // over G(n, 8/n). The bipartite shape is the regime where the
  // planner's leapfrog multi-way merge beats binary join plans: almost
  // no wedge closes, so a binary plan enumerates and probes E*deg
  // wedges while leapfrog refutes each driver edge by galloping two
  // near-disjoint adjacency lists in O(log deg). Default ChaseOptions
  // means kAuto picks the strategy; quick mode keeps triangle/256 and
  // path4/64 so the CI gate exercises the operator on every PR.
  for (int n : config.quick ? std::vector<int>{128, 256}
                            : std::vector<int>{256, 512}) {
    auto dict = std::make_shared<Dictionary>();
    auto program = triq::core::TriangleProgram(dict);
    auto db = triq::core::EdgeDatabase(
        triq::core::BipartiteTriangleEdges(n, /*deg=*/32, /*planted=*/16,
                                           /*seed=*/7),
        n, dict);
    // The /binary companion is the committed ablation: the binary plan
    // (JoinStrategy::kBinary: declared atom order, depth-1 merge join) on
    // the same instance, interleaved with the kAuto run so the A/B ratio in
    // BENCH_chase.json is measured back to back. facts_derived must be
    // identical across the pair (the strategy-equivalence guarantee).
    for (bool binary : {false, true}) {
      triq::chase::ChaseOptions chase_options;
      if (binary) {
        chase_options.join_strategy = triq::chase::JoinStrategy::kBinary;
      }
      std::string name = "chase/triangle/" + std::to_string(n) +
                         (binary ? "/binary" : "");
      harness.Run(name, [&](std::map<std::string, double>* counters) {
        triq::chase::Instance work = triq::core::CloneInstance(db);
        triq::chase::ChaseStats stats;
        triq::Status st =
            triq::chase::RunChase(program, &work, chase_options, &stats);
        if (!st.ok()) std::abort();
        (*counters)["facts_derived"] =
            static_cast<double>(stats.facts_derived);
      });
    }
  }
  for (int n : config.quick ? std::vector<int>{64}
                            : std::vector<int>{64, 256}) {
    auto dict = std::make_shared<Dictionary>();
    auto program = triq::core::Path4Program(dict);
    auto db = triq::core::RandomGraphDatabase(n, 8.0 / n, /*seed=*/11, dict);
    harness.Run("chase/path4/" + std::to_string(n),
                [&](std::map<std::string, double>* counters) {
                  triq::chase::Instance work = triq::core::CloneInstance(db);
                  triq::chase::ChaseStats stats;
                  triq::Status st =
                      triq::chase::RunChase(program, &work, {}, &stats);
                  if (!st.ok()) std::abort();
                  (*counters)["facts_derived"] =
                      static_cast<double>(stats.facts_derived);
                });
  }

  // 10^5-triple generated graph (full mode only: ~10 chase rounds over
  // 100k ternary facts). 2000 disjoint 50-edge chains keep the closure
  // bounded (2000 * C(51,2) = 2.55M reach facts) while the triple
  // relation is big enough to exercise the columnar merge join at
  // ROADMAP scale. Setup goes through the binary fact-dump cache: the
  // first run parses the generated Turtle once and saves
  // <out>/tc_chains_100000.facts; later runs bulk-load that instead of
  // re-parsing text (tools/turtle_to_facts produces the same dumps for
  // on-disk corpora).
  if (!config.quick) {
    constexpr int kChains = 2000;
    constexpr int kChainLen = 50;
    const std::string cache =
        config.out_dir + "/tc_chains_100000.facts";
    auto dict = std::make_shared<Dictionary>();
    dict->Reserve(static_cast<size_t>(kChains) * (kChainLen + 1) + 8);
    auto loaded = triq::chase::LoadFacts(cache, dict);
    // A cached dump from different generator parameters must not be
    // timed silently: regenerate unless the triple count matches.
    if (loaded.ok()) {
      const triq::chase::Relation* cached = loaded->Find("triple");
      if (cached == nullptr ||
          cached->size() !=
              static_cast<size_t>(kChains) * kChainLen) {
        loaded = triq::Status::InvalidArgument("stale cache");
      }
    }
    triq::chase::Instance db =
        loaded.ok() ? std::move(loaded).value() : [&] {
          triq::rdf::Graph g(dict);
          std::istringstream turtle(
              triq::core::MultiChainTurtle(kChains, kChainLen));
          if (!triq::rdf::ParseTurtleStream(turtle, &g).ok()) std::abort();
          auto instance = triq::chase::Instance::FromGraph(g);
          if (!triq::chase::SaveFacts(instance, cache).ok()) {
            std::cerr << "warning: could not write " << cache << "\n";
          }
          return instance;
        }();
    const triq::chase::Relation* triples = db.Find("triple");
    const double num_triples =
        triples == nullptr ? 0 : static_cast<double>(triples->size());
    auto program = triq::core::TripleReachProgram(dict);
    harness.Run("chase/tc_chains_turtle/100000",
                [&](std::map<std::string, double>* counters) {
                  triq::chase::Instance work = db.CloneFacts();
                  triq::chase::ChaseStats stats;
                  triq::Status st =
                      triq::chase::RunChase(program, &work, {}, &stats);
                  if (!st.ok()) std::abort();
                  (*counters)["facts_derived"] =
                      static_cast<double>(stats.facts_derived);
                  (*counters)["triples"] = num_triples;
                });
    // Binary ingestion ladder: how fast the 100k-triple dump re-loads
    // (the Turtle-parse path it replaces is timed by rdf bench suites).
    harness.Run("chase/load_facts/100000",
                [&](std::map<std::string, double>* counters) {
                  auto fresh = triq::chase::LoadFacts(
                      cache, std::make_shared<Dictionary>());
                  if (!fresh.ok()) std::abort();
                  (*counters)["facts"] =
                      static_cast<double>(fresh->TotalFacts());
                });
  }

  auto st = WriteJsonFile(config.out_dir + "/BENCH_chase.json", "chase",
                          options, harness.results());
  if (!st.ok()) { std::cerr << st.ToString() << "\n"; std::exit(1); }
}

// ---- suite: vocab -----------------------------------------------------
//
// The Section 2 fixed-vocabulary libraries (owl:sameAs) over scaled
// author graphs, mirroring bench_sec2_vocab's E12 experiment.
void SuiteVocab(const Config& config, const HarnessOptions& options) {
  Harness harness(options);

  constexpr std::string_view kAuthorsQuery =
      "triple(?Y, is_author_of, ?Z), triple(?Y, name, ?X) -> query(?X) .";

  for (int authors : config.quick ? std::vector<int>{8}
                                  : std::vector<int>{16, 64}) {
    // Graph construction, translation and parsing are setup; only
    // Evaluate (which chases a copy of `db` internally) is timed.
    auto dict = std::make_shared<Dictionary>();
    triq::rdf::Graph g(dict);
    for (int a = 0; a < authors; ++a) {
      std::string base = "author" + std::to_string(a);
      g.Add(base + "_0", "is_author_of", "book" + std::to_string(a));
      g.Add(base + "_0", "owl:sameAs", base + "_1");
      g.Add(base + "_1", "name", "\"Name " + std::to_string(a) + "\"");
    }
    auto program = triq::translate::SameAsRules(dict);
    auto user = triq::datalog::ParseProgram(kAuthorsQuery, dict);
    if (!user.ok() || !program.Append(*user).ok()) std::abort();
    auto query = triq::core::TriqQuery::Create(std::move(program), "query");
    if (!query.ok()) std::abort();
    auto db = triq::chase::Instance::FromGraph(g);
    harness.Run("vocab/sameas_authors/" + std::to_string(authors),
                [&](std::map<std::string, double>* counters) {
                  auto answers = query->Evaluate(db);
                  if (!answers.ok()) std::abort();
                  (*counters)["answers"] =
                      static_cast<double>(answers->size());
                  (*counters)["triples"] = static_cast<double>(g.size());
                });
  }

  auto st = WriteJsonFile(config.out_dir + "/BENCH_vocab.json", "vocab",
                          options, harness.results());
  if (!st.ok()) { std::cerr << st.ToString() << "\n"; std::exit(1); }
}

// ---- suite: transport -------------------------------------------------
//
// The Section 2 recursive transport-service reachability query, which
// SPARQL 1.1 property paths cannot express.
void SuiteTransport(const Config& config, const HarnessOptions& options) {
  Harness harness(options);

  for (int cities : config.quick ? std::vector<int>{8}
                                 : std::vector<int>{16, 64}) {
    int depth = 3;
    auto dict = std::make_shared<Dictionary>();
    auto g = triq::core::TransportNetwork(cities, depth, dict);
    auto query = triq::core::TriqQuery::Create(
        triq::core::TransportProgram(dict), "query");
    if (!query.ok()) std::abort();
    auto db = triq::chase::Instance::FromGraph(g);
    harness.Run("transport/chain_cities/" + std::to_string(cities),
                [&](std::map<std::string, double>* counters) {
                  auto answers = query->Evaluate(db);
                  if (!answers.ok()) std::abort();
                  (*counters)["answers"] =
                      static_cast<double>(answers->size());
                  (*counters)["triples"] = static_cast<double>(g.size());
                });
  }

  auto st = WriteJsonFile(config.out_dir + "/BENCH_transport.json",
                          "transport", options, harness.results());
  if (!st.ok()) { std::cerr << st.ToString() << "\n"; std::exit(1); }
}

// ---- suite: engine ----------------------------------------------------
//
// Mixed read/write traffic against ONE concurrent engine session: reader
// threads evaluate prepared queries and cached SPARQL patterns while a
// writer appends facts and re-materializes, exercising the snapshot
// publish/pin path end to end. Latency counters use the measurement
// suffixes (_qps/_us) that tools/check_bench_regression.py excludes
// from its determinism check; the op counts and final closure size are
// exact and checked.
void SuiteEngine(const Config& config, const HarnessOptions& options) {
  Harness harness(options);

  // The gated workload is identical in quick and full mode (the CI
  // quick run is compared against the committed full-mode baseline), so
  // only the harness repetition counts differ.
  constexpr int kChain = 128;
  constexpr int kReaders = 4;          // half Evaluate, half SPARQL
  constexpr int kReadsPerReader = 100;
  constexpr int kWrites = 12;
  const std::string sparql = "{ ?x edge ?y }";

  harness.Run(
      "engine/mixed_traffic/" + std::to_string(kChain),
      [&](std::map<std::string, double>* counters) {
        triq::Engine engine;
        for (int i = 0; i < kChain; ++i) {
          std::string a = "v" + std::to_string(i);
          std::string b = "v" + std::to_string(i + 1);
          if (!engine.AddTriple(a, "edge", b).ok()) std::abort();
        }
        if (!engine
                 .AttachRules(
                     "triple(?X, edge, ?Y) -> tc(?X, ?Y) .\n"
                     "tc(?X, ?Y), triple(?Y, edge, ?Z) -> tc(?X, ?Z) .")
                 .ok()) {
          std::abort();
        }
        if (!engine.Materialize().ok()) std::abort();

        using Clock = std::chrono::steady_clock;
        std::vector<std::vector<double>> read_us(kReaders);
        std::vector<double> write_us;
        std::atomic<bool> failed{false};

        auto reader = [&](int id) {
          auto query = engine.Prepare("", "tc");
          if (!query.ok()) {
            failed = true;
            return;
          }
          auto& lat = read_us[id];
          lat.reserve(kReadsPerReader);
          for (int i = 0; i < kReadsPerReader; ++i) {
            auto begin = Clock::now();
            bool ok = (id % 2 == 0)
                          ? query->Evaluate().ok()
                          : engine.Query(sparql).ok();
            auto end = Clock::now();
            if (!ok) {
              failed = true;
              return;
            }
            lat.push_back(
                std::chrono::duration<double, std::micro>(end - begin)
                    .count());
          }
        };

        auto traffic_begin = Clock::now();
        std::vector<std::thread> threads;
        threads.reserve(kReaders);
        for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
        // The calling thread is the writer.
        write_us.reserve(kWrites);
        for (int w = 0; w < kWrites; ++w) {
          std::string a = "v" + std::to_string(kChain + w);
          std::string b = "v" + std::to_string(kChain + w + 1);
          auto begin = Clock::now();
          if (!engine.AddTriple(a, "edge", b).ok()) std::abort();
          if (!engine.Materialize().ok()) std::abort();
          auto end = Clock::now();
          write_us.push_back(
              std::chrono::duration<double, std::micro>(end - begin)
                  .count());
        }
        for (std::thread& t : threads) t.join();
        auto traffic_end = Clock::now();
        if (failed.load()) std::abort();

        std::vector<double> reads;
        for (const auto& lat : read_us) {
          reads.insert(reads.end(), lat.begin(), lat.end());
        }
        std::sort(reads.begin(), reads.end());
        std::sort(write_us.begin(), write_us.end());
        auto percentile = [](const std::vector<double>& sorted, double p) {
          if (sorted.empty()) return 0.0;
          size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
          return sorted[std::min(rank, sorted.size() - 1)];
        };
        const double elapsed_s =
            std::chrono::duration<double>(traffic_end - traffic_begin)
                .count();
        const size_t total_ops = reads.size() + write_us.size();

        auto answers = engine.Answers("tc");
        if (!answers.ok()) std::abort();

        // Exact counters (identical on every honest run).
        (*counters)["reads"] = static_cast<double>(reads.size());
        (*counters)["writes"] = static_cast<double>(write_us.size());
        (*counters)["final_tc"] = static_cast<double>(answers->size());
        // Measurements (suffix convention: excluded from the regression
        // script's counter-equality check).
        (*counters)["mixed_qps"] =
            elapsed_s > 0 ? static_cast<double>(total_ops) / elapsed_s : 0;
        (*counters)["read_p50_us"] = percentile(reads, 0.50);
        (*counters)["read_p99_us"] = percentile(reads, 0.99);
        (*counters)["write_p50_us"] = percentile(write_us, 0.50);
        (*counters)["write_p99_us"] = percentile(write_us, 0.99);
      });

  // Crash-recovery cost: replaying a journal of single-fact appends and
  // re-materializing, vs cold-loading a binary dump of the finished
  // closure. Both are timed inside one iteration so the JSON records
  // their ratio on identical hardware. The journal is rebuilt from a
  // pristine byte image before every iteration because a successful
  // Materialize() checkpoints (and thereby empties) the journal.
  {
    constexpr int kRecovered = 128;
    const std::string wal = "/tmp/triq_bench_recovery_" +
                            std::to_string(::getpid()) + ".wal";
    const char* rules =
        "triple(?X, edge, ?Y) -> tc(?X, ?Y) .\n"
        "tc(?X, ?Y), triple(?Y, edge, ?Z) -> tc(?X, ?Z) .";
    auto cleanup = [&] {
      std::remove(wal.c_str());
      std::remove((wal + ".ckpt").c_str());
      std::remove((wal + ".ckpt.tmp").c_str());
    };
    cleanup();
    triq::EngineOptions jopts;
    jopts.SetJournalPath(wal).SetJournalFsync(triq::JournalFsync::kNever);
    {
      auto opened = triq::Engine::Open(jopts);
      if (!opened.ok()) std::abort();
      for (int i = 0; i < kRecovered; ++i) {
        std::string a = "v" + std::to_string(i);
        std::string b = "v" + std::to_string(i + 1);
        if (!(*opened)->AddTriple(a, "edge", b).ok()) std::abort();
      }
      if (!(*opened)->AttachRules(rules).ok()) std::abort();
      // No Materialize: the journal must still hold every record.
    }
    std::string journal_image;
    {
      std::ifstream in(wal, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      journal_image = buf.str();
    }
    // The cold-load comparator: the same closure, already materialized,
    // in the binary fact-dump format.
    std::string dump;
    {
      auto dict = std::make_shared<Dictionary>();
      triq::chase::Instance db(dict);
      for (int i = 0; i < kRecovered; ++i) {
        db.AddFact("triple", {"v" + std::to_string(i), "edge",
                              "v" + std::to_string(i + 1)});
      }
      auto program = triq::datalog::ParseProgram(rules, dict);
      if (!program.ok()) std::abort();
      if (!triq::chase::RunChase(*program, &db).ok()) std::abort();
      if (!triq::chase::SaveFactsToString(db, &dump).ok()) std::abort();
    }

    harness.Run(
        "engine/recovery/" + std::to_string(kRecovered),
        [&](std::map<std::string, double>* counters) {
          std::remove((wal + ".ckpt").c_str());
          std::remove((wal + ".ckpt.tmp").c_str());
          {
            std::ofstream out(wal, std::ios::binary | std::ios::trunc);
            out << journal_image;
          }
          using Clock = std::chrono::steady_clock;
          auto begin = Clock::now();
          auto reopened = triq::Engine::Open(jopts);
          if (!reopened.ok()) std::abort();
          if (!(*reopened)->Materialize().ok()) std::abort();
          auto answers = (*reopened)->Answers("tc");
          if (!answers.ok()) std::abort();
          auto mid = Clock::now();
          auto loaded = triq::chase::LoadFactsFromString(
              dump, std::make_shared<Dictionary>(), "<bench>");
          if (!loaded.ok()) std::abort();
          auto end = Clock::now();

          const auto stats = (*reopened)->stats();
          // Exact: the journal holds one record per AddTriple plus the
          // AttachRules record, and the closure size is determined.
          (*counters)["recovered_records"] =
              static_cast<double>(stats.journal_recovered_records);
          (*counters)["final_tc"] = static_cast<double>(answers->size());
          (*counters)["dump_facts"] = static_cast<double>(loaded->TotalFacts());
          // Measurements.
          (*counters)["replay_us"] =
              std::chrono::duration<double, std::micro>(mid - begin)
                  .count();
          (*counters)["cold_load_us"] =
              std::chrono::duration<double, std::micro>(end - mid).count();
        });
    cleanup();
  }

  auto st = WriteJsonFile(config.out_dir + "/BENCH_engine.json", "engine",
                          options, harness.results());
  if (!st.ok()) { std::cerr << st.ToString() << "\n"; std::exit(1); }
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--large") {
      config.large = true;
    } else if (arg == "--out" && i + 1 < argc) {
      config.out_dir = argv[++i];
    } else if (arg == "--suite" && i + 1 < argc) {
      config.only_suite = argv[++i];
    } else {
      std::cerr << "usage: bench_all [--quick] [--large] [--out DIR]"
                   " [--suite NAME]\n";
      return 2;
    }
  }
  ::mkdir(config.out_dir.c_str(), 0755);  // best-effort; EEXIST is fine

  HarnessOptions options =
      config.quick ? HarnessOptions::Quick() : HarnessOptions{};

  bool ran = false;
  if (config.only_suite.empty() || config.only_suite == "chase") {
    SuiteChase(config, options);
    ran = true;
  }
  if (config.only_suite.empty() || config.only_suite == "vocab") {
    SuiteVocab(config, options);
    ran = true;
  }
  if (config.only_suite.empty() || config.only_suite == "transport") {
    SuiteTransport(config, options);
    ran = true;
  }
  if (config.only_suite.empty() || config.only_suite == "engine") {
    SuiteEngine(config, options);
    ran = true;
  }
  if (!ran) {
    std::cerr << "unknown suite: " << config.only_suite
              << " (expected chase | vocab | transport | engine)\n";
    return 2;
  }
  std::cerr << "wrote BENCH_*.json to " << config.out_dir << "\n";
  return 0;
}
