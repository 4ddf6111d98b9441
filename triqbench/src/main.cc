// triqbench: the end-to-end benchmark driver.
//
//   triqbench --workload owl_materialize|sparql_qa|serve_rw --seed N
//             --seconds S --trace 0|1 --server PATH/triq_server
//
// Prints a detail line (host calibration, exact work counters, sample
// counts, mismatches) and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (whose spans are
// also written to .bench_out/trace_<workload>_<seed>.json). Exits 1 on
// any correctness mismatch and 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using triqbench::JsonNumber;
using triqbench::JsonObject;
using triqbench::JsonString;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; every run reports every entry.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},   {"peak_rss_mb", "MiB"}, {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"}, {"ops_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"rdf.parse_s", "s"},
    {"rdf.triples", "count"},
    {"dictionary.symbols", "count"},
    {"engine.load_s", "s"},
    {"engine.materialize_s", "s"},
    {"analysis.analyze_s", "s"},
    {"analysis.rules", "count"},
    {"chase.run_chase_s", "s"},
    {"engine.materialize_overhead_s", "s"},
    {"chase.rounds", "count"},
    {"chase.rule_firings", "count"},
    {"chase.facts_derived", "count"},
    {"chase.nulls_created", "count"},
    {"chase.sharded_passes", "count"},
    {"chase.useful_ratio", "ratio"},
    {"chase.t1_materialize_s", "s"},
    {"chase.parallel_speedup", "ratio"},
    {"sparql.parse_us", "us"},
    {"translate.translate_us", "us"},
    {"translate.rules_per_query", "count"},
    {"engine.prepare_us", "us"},
    {"chase.query_eval_ms", "ms"},
    {"chase.query_rounds", "count"},
    {"chase.query_rule_firings", "count"},
    {"chase.query_facts_derived", "count"},
    {"engine.decode_ms", "ms"},
    {"engine.query_hit_us", "us"},
    {"engine.query_miss_ms", "ms"},
    {"engine.query_miss_t4_ms", "ms"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.cache_evictions", "count"},
    {"engine.incremental_materialize_ms", "ms"},
    {"engine.rebuilds", "count"},
    {"engine.write_visible_p50_ms", "ms"},
    {"engine.write_visible_p99_ms", "ms"},
    {"triq_server.add_p50_us", "us"},
    {"engine.journal_records", "count"},
    {"engine.journal_syncs", "count"},
    {"engine.journal_checkpoints", "count"},
    {"engine.journal_bytes_per_user_byte", "ratio"},
    {"triq_server.ping_p50_us", "us"},
    {"triq_server.ping_p99_us", "us"},
    {"triq_server.reply_bytes_per_s", "B/s"},
    {"engine.recovery_s", "s"},
    {"trace.overhead_share", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: triqbench --workload owl_materialize|sparql_qa|serve_rw"
               " --seed N --seconds S --trace 0|1 --server PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  triqbench::Options options;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--server") {
      options.server_binary = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 ||
      (trace != "0" && trace != "1") ||
      access(options.server_binary.c_str(), X_OK) != 0) {
    return Usage();
  }
  options.trace = trace == "1";

  triqbench::Tracer tracer(options.trace);
  JsonObject host = triqbench::HostCalibration();
  auto [steal_before, total_before] = triqbench::CpuStealTicks();
  triqbench::RunResult result;
  if (options.workload == "owl_materialize") {
    result = triqbench::RunOwlMaterialize(options, tracer);
  } else if (options.workload == "sparql_qa") {
    result = triqbench::RunSparqlQa(options, tracer);
  } else if (options.workload == "serve_rw") {
    result = triqbench::RunServeRw(options, tracer);
  } else {
    return Usage();
  }

  auto [steal_after, total_after] = triqbench::CpuStealTicks();
  host.Num("cpu_steal_share",
           total_after > total_before
               ? static_cast<double>(steal_after - steal_before) /
                     static_cast<double>(total_after - total_before)
               : 0);

  JsonObject metrics;
  std::string missing;
  auto emit = [&](const MetricSpec& spec,
                  const std::map<std::string, double>& values) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      missing += std::string(missing.empty() ? "" : " ") + spec.name;
      return;
    }
    metrics.Raw(spec.name, "{\"value\": " + JsonNumber(it->second) +
                               ", \"unit\": " + JsonString(spec.unit) + "}");
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, result.layers);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, result.metrics);
  }
  if (!missing.empty()) result.Mismatch("metrics not measured: " + missing);

  std::string mismatches = "[";
  for (size_t i = 0; i < result.mismatches.size(); ++i) {
    mismatches += (i > 0 ? ", " : "") + JsonString(result.mismatches[i]);
  }
  mismatches += "]";
  JsonObject detail;
  detail.Str("workload", options.workload)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Bool("trace", options.trace)
      .Obj("host", host)
      .Obj("counters", result.counters)
      .Obj("detail", result.detail)
      .Num("failed_ops_share",
           result.attempted > 0 ? static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)
                                : 0)
      .Raw("mismatches", mismatches);
  if (options.trace) {
    std::string path = triqbench::OutDir() + "/trace_" + options.workload +
                       "_" + std::to_string(options.seed) + ".json";
    if (tracer.WriteJson(path)) detail.Str("trace_file", path);
  }
  std::printf("%s\n", detail.str().c_str());

  JsonObject line;
  line.Bool("correct", result.correct)
      .Int("attempted", static_cast<int64_t>(result.attempted))
      .Int("failed", static_cast<int64_t>(result.failed))
      .Obj("metrics", metrics);
  std::printf("%s\n", line.str().c_str());
  return result.correct ? 0 : 1;
}
