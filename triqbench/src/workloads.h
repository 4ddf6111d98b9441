// The three workloads and the layer probes they share.
#ifndef TRIQBENCH_WORKLOADS_H_
#define TRIQBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "inputs.h"
#include "util.h"

namespace triqbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;
};

/// Set-ups per run; setup_s and materialize_s report their median.
inline constexpr int kSetups = 5;

/// The engine every workload serves from: the OWL 2 QL core
/// active-domain regime on all four cores of the reference host.
triq::EngineOptions ServingOptions(size_t threads = 4);

RunResult RunOwlMaterialize(const Options& options, Tracer& tracer);
RunResult RunSparqlQa(const Options& options, Tracer& tracer);
RunResult RunServeRw(const Options& options, Tracer& tracer);

// ---- Layer probes (probes.cc) -------------------------------------------
//
// Every traced run reports every per-layer metric. A workload measures
// the layers it exercises from its own traffic; the others are measured
// by these probes on the same seeded inputs, so a per-layer number is
// never a placeholder. README.md lists which layer is native to which
// workload.

/// Counters of one query's miss path (the first PreparedQuery::Evaluate
/// of a freshly translated plan) and its decoding time.
struct MissCounters {
  std::vector<double> rules, rounds, firings, facts, decode_s;
};

/// The miss path run afresh: what EvaluateFresh returns.
struct FreshAnswer {
  std::vector<triq::chase::Tuple> tuples;
  std::vector<triq::SymbolId> vars;  // tuple position i binds vars[i]
  triq::SymbolId star = triq::kInvalidSymbol;  // τ_out's "unbound"
  size_t rules = 0;                  // rules of the translated program
  triq::chase::ChaseStats stats;     // of PreparedQuery::Evaluate
  double seconds = 0;                // the four calls together
};

/// Parse, τ translation, Engine::Prepare and PreparedQuery::Evaluate of
/// `text` on the engine's current snapshot, bypassing the plan cache.
/// With a tracer each call is a root span of `request`. Returns false
/// when a step failed.
bool EvaluateFresh(triq::Engine& engine, const std::string& text,
                   Tracer* tracer, uint64_t request, FreshAnswer* out);

/// One client call as TracedQuery measured it.
struct QueryCall {
  triq::sparql::MappingSet answer;
  bool hit = false;       // by the EngineStats delta (exact with one client)
  double latency_s = 0;   // the Engine::Query call alone
  double cost_s = 0;      // everything the call cost, tracing included
};

/// engine.Query(text) under a span named as a plan-cache hit or miss. On
/// a miss with the tracer recording, the miss path is then re-run by
/// EvaluateFresh for its per-call spans and counters, and the query's
/// latency beyond the re-run is recorded as its decoding time. Returns
/// false when the query failed.
bool TracedQuery(triq::Engine& engine, const std::string& text,
                 Tracer& tracer, uint64_t request, QueryCall* call,
                 MissCounters* counters);

/// Reference evaluation that bypasses the plan cache: EvaluateFresh on
/// the engine's current snapshot, decoded by τ_out into canonical rows.
bool ReferenceAnswer(triq::Engine& engine, const std::string& text,
                     std::vector<std::string>* rows);

/// True when two materializations derived exactly the same: rounds,
/// firings, facts, nulls and closure size.
bool SameClosure(const triq::chase::ChaseStats& a, size_t facts_a,
                 const triq::chase::ChaseStats& b, size_t facts_b);

/// trace.overhead_share: the mean cost of the ops a traced run recorded
/// (tracing included) over the mean cost of the ops it did not, minus 1.
double OverheadShare(const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s);

/// Per-layer metrics of the query path from the spans and counters
/// gathered by TracedQuery.
void QueryLayers(const Tracer& tracer, const MissCounters& counters,
                 const triq::EngineStats& before,
                 const triq::EngineStats& after, RunResult* result);

/// Parse, load, analyze, materialize at 4 and 1 threads, and a bare 1-thread
/// RunChase on the same instance; fills the rdf/dictionary/analysis/
/// chase layers, checks the t1 and t4 counters agree, and times 64
/// plan-cache misses on the 4-thread engine (engine.query_miss_t4_ms).
/// Returns the materialized 1-thread engine, the query path's
/// configuration in sparql_qa, for further probes.
std::unique_ptr<triq::Engine> ProbeClosure(const Inputs& inputs,
                                           Tracer& tracer, RunResult* result);

/// Runs the first `n` queries of reader 0's Zipf sequence through
/// TracedQuery on `engine` and fills the query-path layers.
void ProbeQueries(triq::Engine& engine, const Inputs& inputs, size_t n,
                  Tracer& tracer, RunResult* result);

/// A short serve_rw session (one reader, the writer, one recovery) for
/// the wire and journal layers of workloads that run no server.
void ProbeServer(const Options& options, const Inputs& inputs,
                 Tracer& tracer, RunResult* result);

/// Stats counters of a run's first Materialize as exact-match fields.
void RecordChaseCounters(const triq::chase::ChaseStats& stats,
                         JsonObject* counters);

}  // namespace triqbench

#endif  // TRIQBENCH_WORKLOADS_H_
