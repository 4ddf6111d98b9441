// owl_materialize: repeated cold Engine sessions, each LoadTurtle then
// Materialize of τ_owl2ql_core over the seeded ontology. This is the
// paper's reasoning closure: join-heavy, existential, and wasteful (most
// firings add nothing). Parse, translation, the plan cache and the wire
// are idle here.
//
// The timed sessions run on one thread. Four threads are no faster today,
// and a sharded pass waits for its slowest worker, so on a shared 4-vCPU
// host a 4-thread session follows the other tenants' load (60% slower
// under four busy processes, against 7% for one thread). The untimed
// warm-up session runs four threads, and the traced run's
// chase.parallel_speedup keeps the parallel path in view.
#include <string>
#include <vector>

#include "workloads.h"

namespace triqbench {

RunResult RunOwlMaterialize(const Options& options, Tracer& tracer) {
  RunResult result;
  // Generation is this workload's whole set-up and takes milliseconds:
  // repeat it more often than the others so its median is steady.
  std::vector<double> setups;
  Inputs inputs;
  for (int i = 0; i < 31; ++i) {
    Clock::time_point start = Clock::now();
    inputs = MakeInputs(options.seed);
    setups.push_back(SecondsSince(start));
  }

  // Untimed warm-up, and the reference for every timed session: one
  // thread must derive exactly what four do.
  ++result.attempted;
  triq::chase::ChaseStats first;
  size_t first_facts = 0;
  {
    triq::Engine parallel(ServingOptions(4));
    triq::Status loaded = parallel.LoadTurtle(inputs.turtle);
    auto stats = loaded.ok() ? parallel.Materialize()
                             : triq::Result<triq::chase::ChaseStats>(loaded);
    if (!stats.ok()) {
      result.failed = 1;
      result.Mismatch("4-thread session: " + stats.status().ToString());
      return result;
    }
    first = *stats;
    first_facts = (*parallel.MaterializedInstance())->TotalFacts();
  }

  // The traced run alternates recording on and off per session to
  // measure its own overhead.
  std::vector<double> session_s, materialize_s, traced_s, untraced_s;
  Clock::time_point window = Clock::now();
  for (uint64_t request = 1;
       session_s.size() < 3 || SecondsSince(window) < options.seconds;
       ++request) {
    tracer.set_recording(request % 2 == 0);
    ++result.attempted;
    Clock::time_point start = Clock::now();
    ScopedSpan session(tracer, "session", request);
    triq::Engine engine(ServingOptions(1));
    triq::Status loaded;
    {
      ScopedSpan span(tracer, "Engine::LoadTurtle", request, session.id());
      loaded = engine.LoadTurtle(inputs.turtle);
    }
    Clock::time_point materialize_start = Clock::now();
    triq::Result<triq::chase::ChaseStats> stats = triq::chase::ChaseStats();
    {
      ScopedSpan span(tracer, "Engine::Materialize", request, session.id());
      if (loaded.ok()) stats = engine.Materialize();
    }
    double materialize = SecondsSince(materialize_start);
    double total = SecondsSince(start);
    if (!loaded.ok() || !stats.ok()) {
      ++result.failed;
      result.Mismatch("session " + std::to_string(request) + ": " +
                      (loaded.ok() ? stats.status() : loaded).ToString());
      continue;
    }
    if (!SameClosure(*stats, (*engine.MaterializedInstance())->TotalFacts(),
                     first, first_facts)) {
      ++result.failed;
      result.Mismatch("session " + std::to_string(request) +
                      ": chase counters differ from the 4-thread session");
    }
    session_s.push_back(total);
    materialize_s.push_back(materialize);
    (tracer.recording() ? traced_s : untraced_s).push_back(total);
  }
  tracer.set_recording(true);

  double busy = 0;
  for (double s : session_s) busy += s;
  result.metrics["setup_s"] = Median(setups);
  result.metrics["op_p50_ms"] = Median(session_s) * 1e3;
  result.metrics["op_p99_ms"] = Percentile(session_s, 0.99) * 1e3;
  result.metrics["ops_per_s"] =
      busy > 0 ? static_cast<double>(session_s.size()) / busy : 0;
  result.metrics["peak_rss_mb"] = PeakRssMb();
  result.layers["engine.materialize_s"] = Median(materialize_s);

  result.counters.Int("input_triples", static_cast<int64_t>(inputs.triples))
      .Int("closure_facts", static_cast<int64_t>(first_facts));
  RecordChaseCounters(first, &result.counters);
  result.detail.Obj("op_latency", LatencySummary(session_s))
      .Str("op", "one cold session: Engine construction, LoadTurtle, "
                 "Materialize (1 thread); ops_per_s is sessions over the "
                 "time spent in them");

  if (tracer.enabled()) {
    std::unique_ptr<triq::Engine> engine =
        ProbeClosure(inputs, tracer, &result);
    if (engine != nullptr) ProbeQueries(*engine, inputs, 256, tracer, &result);
    ProbeServer(options, inputs, tracer, &result);
    result.layers["trace.overhead_share"] =
        OverheadShare(traced_s, untraced_s);
  }
  return result;
}

}  // namespace triqbench
