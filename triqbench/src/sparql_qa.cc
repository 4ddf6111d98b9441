// sparql_qa: one in-process client in a closed loop against a
// materialized session. Each query is drawn Zipf(s = 1) from the seeded
// pool of kPoolSize distinct patterns; the default plan cache holds 128
// plans, so about a quarter of the queries miss and take the whole path:
// parse, τ translation, Prepare, the query-overlay chase, decoding and
// the LRU. The data chase runs only in set-up. One client keeps the
// per-query costs and the cache counters exact; concurrency is
// serve_rw's job.
//
// The session runs on one thread. With four, every query chase starts
// and joins a thread pool of its own: misses cost about twice as much,
// and five times as much when other processes hold the cores, so the
// figures would follow the host's load rather than the code. The traced
// run's engine.query_miss_t4_ms keeps that cost in view.
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace triqbench {

namespace {

/// Queries over which the hit/miss split is recorded as an exact
/// counter: a fixed prefix of the seeded sequence, so it does not depend
/// on how many queries the host manages in the window.
constexpr uint64_t kCountedPrefix = 2000;

/// ops_per_s is the median of the rates of slices this long: a burst of
/// host load moves a few slices, not the whole figure.
constexpr double kSliceSeconds = 1.0;

/// peak_rss_mb is read after this many queries, not at the end of the
/// window: the engine keeps every prepared program's text, so resident
/// memory grows with each plan-cache miss, and a reading at the end
/// would grow with the host's speed rather than with the input.
constexpr uint64_t kRssPrefix = 10000;

struct Seen {
  size_t answers = 0;
  size_t rows = 0;
  uint64_t fingerprint = 0;
};

}  // namespace

RunResult RunSparqlQa(const Options& options, Tracer& tracer) {
  RunResult result;
  std::vector<double> setups;
  Inputs inputs;
  std::unique_ptr<triq::Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    Clock::time_point start = Clock::now();
    inputs = MakeInputs(options.seed);
    engine = std::make_unique<triq::Engine>(ServingOptions(1));
    triq::Status loaded = engine->LoadTurtle(inputs.turtle);
    auto stats = loaded.ok() ? engine->Materialize()
                             : triq::Result<triq::chase::ChaseStats>(loaded);
    setups.push_back(SecondsSince(start));
    if (!stats.ok()) {
      result.attempted = 1;
      result.failed = 1;
      result.Mismatch("set-up: " + stats.status().ToString());
      return result;
    }
    if (i == 0) RecordChaseCounters(*stats, &result.counters);
  }

  std::mt19937_64 rng = Stream(options.seed, 1);
  std::vector<Seen> seen(kPoolSize);
  std::vector<double> latencies, slice_rates, traced_s, untraced_s;
  double slice_busy = 0;
  uint64_t slice_queries = 0;
  MissCounters miss_counters;
  uint64_t prefix_hits = 0, prefix_misses = 0;
  double setup_rss_mb = PeakRssMb();
  double rss_mb = 0;
  triq::EngineStats before = engine->stats();
  Clock::time_point window = Clock::now();
  Clock::time_point slice = window;
  for (uint64_t request = 1; SecondsSince(window) < options.seconds;
       ++request) {
    if (SecondsSince(slice) >= kSliceSeconds) {
      if (slice_busy > 0) slice_rates.push_back(slice_queries / slice_busy);
      slice = Clock::now();
      slice_busy = 0;
      slice_queries = 0;
    }
    size_t index = DrawQuery(inputs, rng);
    tracer.set_recording(request % 2 == 0);
    QueryCall call;
    ++result.attempted;
    if (!TracedQuery(*engine, inputs.pool[index], tracer, request, &call,
                     &miss_counters)) {
      ++result.failed;
      result.Mismatch("query failed: " + inputs.pool[index]);
      continue;
    }
    if (request <= kCountedPrefix) ++(call.hit ? prefix_hits : prefix_misses);
    if (request == kRssPrefix) rss_mb = PeakRssMb();
    latencies.push_back(call.latency_s);
    slice_busy += call.latency_s;
    ++slice_queries;
    (tracer.recording() ? traced_s : untraced_s).push_back(call.cost_s);

    std::vector<std::string> rows = CanonicalRows(call.answer, engine->dict());
    uint64_t fingerprint = FingerprintLines(rows);
    Seen& s = seen[index];
    if (s.answers > 0 && (s.rows != rows.size() || s.fingerprint != fingerprint)) {
      ++result.failed;
      result.Mismatch("answers changed between calls: " + inputs.pool[index]);
    }
    s.answers++;
    s.rows = rows.size();
    s.fingerprint = fingerprint;
  }
  tracer.set_recording(true);
  triq::EngineStats after = engine->stats();

  // Untimed reference evaluation of every asked pattern on the same
  // snapshot, bypassing the plan cache.
  size_t distinct = 0;
  for (size_t index = 0; index < kPoolSize; ++index) {
    if (seen[index].answers == 0) continue;
    ++distinct;
    std::vector<std::string> rows;
    if (!ReferenceAnswer(*engine, inputs.pool[index], &rows) ||
        rows.size() != seen[index].rows ||
        FingerprintLines(rows) != seen[index].fingerprint) {
      result.failed += seen[index].answers;
      result.Mismatch("answer differs from the reference evaluation: " +
                      inputs.pool[index]);
    }
  }

  if (slice_rates.empty() && slice_busy > 0) {
    slice_rates.push_back(slice_queries / slice_busy);
  }
  result.metrics["setup_s"] = Median(setups);
  result.metrics["op_p50_ms"] = Median(latencies) * 1e3;
  result.metrics["op_p99_ms"] = Percentile(latencies, 0.99) * 1e3;
  result.metrics["ops_per_s"] = Median(slice_rates);
  result.metrics["peak_rss_mb"] = rss_mb > 0 ? rss_mb : PeakRssMb();

  result.counters.Int("input_triples", static_cast<int64_t>(inputs.triples))
      .Int("prefix_queries",
           static_cast<int64_t>(std::min<uint64_t>(kCountedPrefix,
                                                   latencies.size())))
      .Int("prefix_cache_hits", static_cast<int64_t>(prefix_hits))
      .Int("prefix_cache_misses", static_cast<int64_t>(prefix_misses));
  result.detail.Obj("op_latency", LatencySummary(latencies))
      .Int("distinct_patterns_asked", static_cast<int64_t>(distinct))
      .Int("cache_hits",
           static_cast<int64_t>(after.sparql_cache_hits - before.sparql_cache_hits))
      .Int("cache_misses", static_cast<int64_t>(after.sparql_cache_misses -
                                                before.sparql_cache_misses))
      .Num("rss_after_setup_mb", setup_rss_mb)
      .Num("rss_at_window_end_mb", PeakRssMb())
      .Int("rate_slices", static_cast<int64_t>(slice_rates.size()))
      .Str("op", "one Engine::Query call on a 1-thread session; ops_per_s "
                 "is the median over 1 s slices of queries over the time "
                 "spent inside Engine::Query (closed loop, no think time, "
                 "answer checks excluded); peak_rss_mb is read after the "
                 "first 10000 queries");

  if (tracer.enabled()) {
    QueryLayers(tracer, miss_counters, before, after, &result);
    ProbeClosure(inputs, tracer, &result);
    ProbeServer(options, inputs, tracer, &result);
    result.layers["trace.overhead_share"] =
        OverheadShare(traced_s, untraced_s);
  }
  return result;
}

}  // namespace triqbench
