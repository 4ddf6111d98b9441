// Span-timed calls into each layer's public functions, shared by the
// workloads' traced runs (see workloads.h).
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "translate/sparql_to_datalog.h"
#include "workloads.h"

namespace triqbench {

namespace {

/// Request ids of probe calls, kept apart from the workloads' own.
constexpr uint64_t kProbeRequest = uint64_t{1} << 40;

/// Mirrors the translation Engine::Query performs under the serving
/// regime: τ^U_bgp, with τ_owl2ql_core left to the materialized closure.
triq::translate::TranslationOptions QueryTranslation() {
  triq::translate::TranslationOptions options;
  options.regime = triq::translate::Regime::kActiveDomain;
  options.include_owl2ql_core = false;
  return options;
}

}  // namespace

triq::EngineOptions ServingOptions(size_t threads) {
  return triq::EngineOptions()
      .SetRegime(triq::EntailmentRegime::kActiveDomain)
      .SetNumThreads(threads);
}

void RecordChaseCounters(const triq::chase::ChaseStats& stats,
                         JsonObject* counters) {
  counters->Int("chase_rounds", static_cast<int64_t>(stats.rounds))
      .Int("chase_rule_firings", static_cast<int64_t>(stats.rule_firings))
      .Int("chase_facts_derived", static_cast<int64_t>(stats.facts_derived))
      .Int("chase_nulls_created", static_cast<int64_t>(stats.nulls_created));
}

bool SameClosure(const triq::chase::ChaseStats& a, size_t facts_a,
                 const triq::chase::ChaseStats& b, size_t facts_b) {
  return a.rounds == b.rounds && a.rule_firings == b.rule_firings &&
         a.facts_derived == b.facts_derived &&
         a.nulls_created == b.nulls_created && facts_a == facts_b;
}

double OverheadShare(const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s) {
  double traced = 0, untraced = 0;
  for (double s : traced_s) traced += s;
  for (double s : untraced_s) untraced += s;
  if (traced_s.empty() || untraced <= 0) return 0;
  return (traced / static_cast<double>(traced_s.size())) /
             (untraced / static_cast<double>(untraced_s.size())) -
         1.0;
}

bool EvaluateFresh(triq::Engine& engine, const std::string& text,
                   Tracer* tracer, uint64_t request, FreshAnswer* out) {
  // Runs one call under its own span and adds its time to out->seconds.
  auto timed = [&](const char* name, auto&& call) {
    int32_t span = tracer != nullptr ? tracer->Begin(name, request) : -1;
    Clock::time_point start = Clock::now();
    auto result = call();
    out->seconds += SecondsSince(start);
    if (span >= 0) tracer->End(span);
    return result;
  };
  auto pattern = timed("sparql::ParsePattern", [&] {
    return triq::sparql::ParsePattern(text, &engine.dict());
  });
  if (!pattern.ok()) return false;
  auto translated = timed("translate::TranslatePattern", [&] {
    return triq::translate::TranslatePattern(**pattern, engine.dict_ptr(),
                                             QueryTranslation());
  });
  if (!translated.ok()) return false;
  out->rules = translated->program.rules().size();
  out->vars = translated->answer_variables;
  out->star = translated->star;
  std::string answer_name = engine.dict().Text(translated->answer_predicate);
  auto prepared = timed("Engine::Prepare", [&] {
    return engine.Prepare(std::move(translated->program), answer_name);
  });
  if (!prepared.ok()) return false;
  auto tuples = timed("PreparedQuery::Evaluate",
                      [&] { return prepared->Evaluate(&out->stats); });
  if (!tuples.ok()) return false;
  out->tuples = std::move(*tuples);
  return true;
}

bool TracedQuery(triq::Engine& engine, const std::string& text,
                 Tracer& tracer, uint64_t request, QueryCall* call,
                 MissCounters* counters) {
  Clock::time_point begin = Clock::now();
  triq::EngineStats before = engine.stats();
  int32_t span = tracer.recording() ? tracer.Begin("Engine::Query", request)
                                    : -1;
  Clock::time_point start = Clock::now();
  triq::Result<triq::sparql::MappingSet> got = engine.Query(text);
  call->latency_s = SecondsSince(start);
  if (span >= 0) tracer.End(span);
  triq::EngineStats after = engine.stats();
  call->hit = after.sparql_cache_hits > before.sparql_cache_hits;
  if (!got.ok()) return false;
  call->answer = std::move(*got);
  bool ok = true;
  if (span >= 0) {
    tracer.Rename(span,
                  call->hit ? "Engine::Query[hit]" : "Engine::Query[miss]");
  }
  if (span >= 0 && !call->hit) {
    // The miss path's public calls re-run afresh on the same, now warmed,
    // snapshot: root spans of the same request, beside the query's span.
    // Whatever the query cost beyond them is decoding and cache upkeep.
    FreshAnswer fresh;
    ok = EvaluateFresh(engine, text, &tracer, request, &fresh);
    counters->rules.push_back(static_cast<double>(fresh.rules));
    counters->rounds.push_back(static_cast<double>(fresh.stats.rounds));
    counters->firings.push_back(static_cast<double>(fresh.stats.rule_firings));
    counters->facts.push_back(static_cast<double>(fresh.stats.facts_derived));
    counters->decode_s.push_back(call->latency_s - fresh.seconds);
  }
  call->cost_s = SecondsSince(begin);
  return ok;
}

bool ReferenceAnswer(triq::Engine& engine, const std::string& text,
                     std::vector<std::string>* rows) {
  FreshAnswer fresh;
  if (!EvaluateFresh(engine, text, nullptr, 0, &fresh)) return false;
  // τ_out decoding: position i binds vars[i] unless it holds ⋆.
  std::set<std::string> unique;
  for (const triq::chase::Tuple& tuple : fresh.tuples) {
    std::string rendered = "{";
    bool first = true;
    for (size_t i = 0; i < fresh.vars.size() && i < tuple.size(); ++i) {
      if (tuple[i].IsNull() || tuple[i].symbol() == fresh.star) continue;
      rendered += (first ? "" : ", ") + engine.dict().Text(fresh.vars[i]) +
                  "->" + engine.dict().Text(tuple[i].symbol());
      first = false;
    }
    unique.insert(CanonicalMapping(rendered + "}"));
  }
  rows->assign(unique.begin(), unique.end());
  return true;
}

void QueryLayers(const Tracer& tracer, const MissCounters& counters,
                 const triq::EngineStats& before,
                 const triq::EngineStats& after, RunResult* result) {
  auto& layers = result->layers;
  layers["sparql.parse_us"] =
      Median(tracer.Durations("sparql::ParsePattern")) * 1e6;
  layers["translate.translate_us"] =
      Median(tracer.Durations("translate::TranslatePattern")) * 1e6;
  layers["translate.rules_per_query"] = Median(counters.rules);
  layers["engine.prepare_us"] =
      Median(tracer.Durations("Engine::Prepare")) * 1e6;
  layers["chase.query_eval_ms"] =
      Median(tracer.Durations("PreparedQuery::Evaluate")) * 1e3;
  layers["chase.query_rounds"] = Median(counters.rounds);
  layers["chase.query_rule_firings"] = Median(counters.firings);
  layers["chase.query_facts_derived"] = Median(counters.facts);
  layers["engine.decode_ms"] = Median(counters.decode_s) * 1e3;
  layers["engine.query_hit_us"] =
      Median(tracer.Durations("Engine::Query[hit]")) * 1e6;
  layers["engine.query_miss_ms"] =
      Median(tracer.Durations("Engine::Query[miss]")) * 1e3;
  double hits =
      static_cast<double>(after.sparql_cache_hits - before.sparql_cache_hits);
  double misses = static_cast<double>(after.sparql_cache_misses -
                                      before.sparql_cache_misses);
  layers["engine.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  layers["engine.cache_evictions"] = static_cast<double>(
      after.sparql_cache_evictions - before.sparql_cache_evictions);
}

std::unique_ptr<triq::Engine> ProbeClosure(const Inputs& inputs,
                                           Tracer& tracer, RunResult* result) {
  const uint64_t request = kProbeRequest;
  auto& layers = result->layers;
  {
    triq::rdf::Graph graph(std::make_shared<triq::Dictionary>());
    triq::Status parsed;
    {
      ScopedSpan s(tracer, "rdf::ParseTurtle", request);
      parsed = triq::rdf::ParseTurtle(inputs.turtle, &graph);
    }
    if (!parsed.ok()) result->Mismatch("ParseTurtle: " + parsed.ToString());
    layers["rdf.triples"] = static_cast<double>(graph.size());
  }

  auto engine = std::make_unique<triq::Engine>(ServingOptions(4));
  triq::Status loaded;
  {
    ScopedSpan s(tracer, "Engine::LoadTurtle", request);
    loaded = engine->LoadTurtle(inputs.turtle);
  }
  layers["dictionary.symbols"] = static_cast<double>(engine->dict().size());
  {
    ScopedSpan s(tracer, "Engine::AnalyzeProgram", request);
    triq::analysis::ProgramAnalysis analysis = engine->AnalyzeProgram();
    layers["analysis.rules"] = static_cast<double>(analysis.num_rules);
  }
  triq::Result<triq::chase::ChaseStats> t4 = triq::chase::ChaseStats();
  {
    ScopedSpan s(tracer, "Engine::Materialize[t4]", request);
    if (loaded.ok()) t4 = engine->Materialize();
  }

  auto single = std::make_unique<triq::Engine>(ServingOptions(1));
  triq::Status loaded_single = single->LoadTurtle(inputs.turtle);
  triq::Result<triq::chase::ChaseStats> t1 = triq::chase::ChaseStats();
  {
    ScopedSpan s(tracer, "Engine::Materialize[t1]", request);
    if (loaded_single.ok()) t1 = single->Materialize();
  }

  // The bare 1-thread chase on the same instance: the 1-thread
  // Materialize minus this is the engine's own cost (clone, freeze,
  // publish).
  triq::rdf::Graph graph(single->dict_ptr());
  triq::Status reparsed = triq::rdf::ParseTurtle(inputs.turtle, &graph);
  triq::chase::Instance instance = triq::chase::Instance::FromGraph(graph);
  triq::chase::ChaseStats bare;
  triq::Status chased;
  {
    ScopedSpan s(tracer, "chase::RunChase", request);
    chased = triq::chase::RunChase(single->program(), &instance,
                                   single->options().ToChaseOptions(), &bare);
  }

  if (!loaded.ok() || !t4.ok() || !reparsed.ok() || !chased.ok() ||
      !loaded_single.ok() || !t1.ok()) {
    result->Mismatch("closure probe: a load, chase or materialize failed");
    return nullptr;
  }
  size_t facts4 = (*engine->MaterializedInstance())->TotalFacts();
  size_t facts1 = (*single->MaterializedInstance())->TotalFacts();
  if (!SameClosure(*t1, facts1, *t4, facts4)) {
    result->Mismatch("closure probe: 1-thread and 4-thread counters differ");
  }

  // Plan-cache misses on the 4-thread engine: every chase there starts a
  // thread pool, which the 1-thread query path of sparql_qa never pays.
  std::vector<double> misses_t4;
  for (size_t i = 0; i < 64; ++i) {
    triq::EngineStats before = engine->stats();
    Clock::time_point start = Clock::now();
    triq::Result<triq::sparql::MappingSet> got = engine->Query(inputs.pool[i]);
    double latency = SecondsSince(start);
    if (!got.ok()) {
      result->Mismatch("closure probe: query failed: " + inputs.pool[i]);
    } else if (engine->stats().sparql_cache_misses >
               before.sparql_cache_misses) {
      misses_t4.push_back(latency);
    }
  }

  double parallel_s = Median(tracer.Durations("Engine::Materialize[t4]"));
  double run_chase = Median(tracer.Durations("chase::RunChase"));
  double single_s = Median(tracer.Durations("Engine::Materialize[t1]"));
  layers["rdf.parse_s"] = Median(tracer.Durations("rdf::ParseTurtle"));
  layers["engine.load_s"] = Median(tracer.Durations("Engine::LoadTurtle"));
  layers["analysis.analyze_s"] =
      Median(tracer.Durations("Engine::AnalyzeProgram"));
  layers["chase.run_chase_s"] = run_chase;
  layers.emplace("engine.materialize_s", single_s);
  layers["engine.materialize_overhead_s"] = single_s - run_chase;
  layers["chase.t1_materialize_s"] = single_s;
  layers["chase.parallel_speedup"] = single_s / parallel_s;
  layers["engine.query_miss_t4_ms"] = Median(misses_t4) * 1e3;
  layers["chase.rounds"] = static_cast<double>(t4->rounds);
  layers["chase.rule_firings"] = static_cast<double>(t4->rule_firings);
  layers["chase.facts_derived"] = static_cast<double>(t4->facts_derived);
  layers["chase.nulls_created"] = static_cast<double>(t4->nulls_created);
  layers["chase.sharded_passes"] = static_cast<double>(t4->sharded_passes);
  layers["chase.useful_ratio"] =
      t4->rule_firings > 0 ? static_cast<double>(t4->facts_derived) /
                                 static_cast<double>(t4->rule_firings)
                           : 0;
  result->counters.Int("bare_chase_rule_firings",
                       static_cast<int64_t>(bare.rule_firings))
      .Int("bare_chase_facts_derived",
           static_cast<int64_t>(bare.facts_derived));
  return single;
}

void ProbeQueries(triq::Engine& engine, const Inputs& inputs, size_t n,
                  Tracer& tracer, RunResult* result) {
  triq::EngineStats before = engine.stats();
  std::mt19937_64 rng = Stream(inputs.seed, 1);
  MissCounters counters;
  for (size_t i = 0; i < n; ++i) {
    const std::string& text = inputs.pool[DrawQuery(inputs, rng)];
    QueryCall call;
    if (!TracedQuery(engine, text, tracer, kProbeRequest + 1 + i, &call,
                     &counters)) {
      result->Mismatch("query probe failed: " + text);
    }
  }
  QueryLayers(tracer, counters, before, engine.stats(), result);
}

}  // namespace triqbench
