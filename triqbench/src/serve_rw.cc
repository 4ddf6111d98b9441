// serve_rw: triq_server as a child process, driven over the wire by one
// client process with three reader connections and one writer. Readers
// run a closed loop of SPARQL from the same Zipf pool (every 10th
// command a PING); the writer runs an open loop, sending 16 ADDs and a
// MATERIALIZE every 100 ms. Every publish invalidates cached answers, so
// readers re-chase fresh snapshots while the journal sits on the write
// path. The server is a separate process, so a server crash shows up as
// failed operations and a recorded exit signal, never as a benchmark
// crash. After the window the server is SIGKILLed (if still alive) and
// reopened on its journal; every acknowledged ADD must be present and
// answers must equal an in-process Engine fed the same acknowledged ops.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "wire.h"
#include "workloads.h"

namespace triqbench {

namespace {

constexpr int kReaders = 3;
constexpr int kPingEvery = 10;
constexpr auto kBatchPeriod = std::chrono::milliseconds(100);
constexpr size_t kOpsPerBatch = 17;  // 16 ADDs + MATERIALIZE
/// Patterns (the most frequent of the pool) compared between the
/// recovered server and the reference engine.
constexpr size_t kComparedPatterns = 32;
constexpr double kStartTimeout = 120;

std::vector<std::string> ServerArgs(const std::string& journal) {
  return {"--port",   "0",     "--workers", "4",     "--regime",
          "active-domain",      "--journal", journal, "--fsync", "batch"};
}

/// The input as one LOAD line (the wire protocol is line-framed).
std::string LoadLine(const Inputs& inputs) {
  std::string line = "LOAD " + inputs.turtle;
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  return line;
}

/// STAT lines of a STATS reply as name -> value.
std::map<std::string, double> ParseStats(const Connection::Reply& reply) {
  std::map<std::string, double> stats;
  for (const std::string& row : reply.rows) {
    char name[128];
    double value = 0;
    if (std::sscanf(row.c_str(), "STAT %127s %lf", name, &value) == 2) {
      stats[name] = value;
    }
  }
  return stats;
}

std::vector<std::string> CanonicalReplyRows(const Connection::Reply& reply) {
  std::vector<std::string> rows;
  for (const std::string& row : reply.rows) {
    if (row.rfind("ROW ", 0) == 0) rows.push_back(CanonicalMapping(row.substr(4)));
  }
  return rows;
}

/// A server spawned on a fresh journal with the input loaded and
/// materialized (StartServing).
struct Serving {
  ServerProcess server;
  std::string journal;
  double setup_s = 0;
  double materialize_s = 0;
  std::map<std::string, double> stats;  // STATS after set-up
};

bool StartServing(const Options& options, const Inputs& inputs,
                  const std::string& name, Serving* serving,
                  std::string* error) {
  std::string dir = OutDir();
  serving->journal = dir + "/" + name + ".journal";
  unlink(serving->journal.c_str());
  unlink((serving->journal + ".ckpt").c_str());
  Clock::time_point start = Clock::now();
  if (!serving->server.Start(options.server_binary,
                             ServerArgs(serving->journal), dir + "/" + name,
                             kStartTimeout)) {
    *error = "server did not start";
    return false;
  }
  Connection conn;
  Connection::Reply reply;
  if (!conn.Connect(serving->server.port()) ||
      !conn.Call(LoadLine(inputs), &reply) || !reply.ok) {
    *error = "LOAD failed: " + reply.last;
    return false;
  }
  Clock::time_point materialize_start = Clock::now();
  if (!conn.Call("MATERIALIZE", &reply) || !reply.ok) {
    *error = "MATERIALIZE failed: " + reply.last;
    return false;
  }
  serving->materialize_s = SecondsSince(materialize_start);
  serving->setup_s = SecondsSince(start);
  if (conn.Call("STATS", &reply) && reply.ok) serving->stats = ParseStats(reply);
  return true;
}

struct ReaderLog {
  ReaderLog(bool trace, std::mt19937_64 stream)
      : tracer(trace), rng(std::move(stream)) {}
  Tracer tracer;
  std::mt19937_64 rng;  // continues across server lives
  uint64_t sent = 0;
  std::vector<double> read_s, ping_s, traced_s, untraced_s;
  uint64_t attempted = 0, failed = 0, reply_bytes = 0;
  std::vector<std::string> errors;
};

struct WriterLog {
  explicit WriterLog(bool trace) : tracer(trace) {}
  Tracer tracer;
  uint64_t next_batch = 0;  // the first batch not yet started
  std::vector<double> visible_s, add_s, materialize_s, late_s;
  uint64_t attempted = 0, failed = 0, failed_batches = 0, user_bytes = 0;
  std::vector<std::string> acked;
  std::vector<std::string> in_doubt;  // ADDs sent whose reply never came
  std::map<std::string, double> stats;  // last STATS this life (traced runs)
  std::vector<std::string> errors;
};

void Note(std::vector<std::string>* errors, const std::string& error) {
  if (errors->size() < 5) errors->push_back(error);
}

void Reader(const Inputs& inputs, int port, uint64_t request_base,
            Clock::time_point end, std::atomic<bool>* dead, ReaderLog* log) {
  Connection conn;
  if (!conn.Connect(port)) {
    dead->store(true);
    return;
  }
  while (Clock::now() < end && !dead->load()) {
    uint64_t n = ++log->sent;
    bool ping = n % kPingEvery == 0;
    std::string line =
        ping ? "PING" : "SPARQL " + inputs.pool[DrawQuery(inputs, log->rng)];
    log->tracer.set_recording(n % 2 == 0);
    Connection::Reply reply;
    ++log->attempted;
    Clock::time_point start = Clock::now();
    bool answered;
    {
      ScopedSpan span(log->tracer, ping ? "wire PING" : "wire SPARQL",
                      request_base + n);
      answered = conn.Call(line, &reply);
    }
    double latency = SecondsSince(start);
    if (!answered) {
      ++log->failed;  // unanswered: the server closed or died
      dead->store(true);
      return;
    }
    if (!reply.ok) {
      ++log->failed;
      Note(&log->errors, reply.last);
      continue;
    }
    log->reply_bytes += reply.bytes;
    if (ping) {
      log->ping_s.push_back(latency);
    } else {
      log->read_s.push_back(latency);
      (log->tracer.recording() ? log->traced_s : log->untraced_s)
          .push_back(latency);
    }
  }
}

/// The open-loop writer: batch b is due at origin + b * kBatchPeriod,
/// whatever happened to earlier batches; its visibility latency runs
/// from that due time to the MATERIALIZE reply.
void Writer(const Options& options, int port, Clock::time_point origin,
            Clock::time_point end, std::atomic<bool>* dead, WriterLog* log) {
  Connection conn;
  if (!conn.Connect(port)) {
    dead->store(true);
    return;
  }
  for (;; ++log->next_batch) {
    uint64_t b = log->next_batch;
    Clock::time_point due = origin + b * kBatchPeriod;
    if (due >= end || dead->load()) return;
    std::this_thread::sleep_until(due);
    if (dead->load()) return;
    log->late_s.push_back(SecondsSince(due));
    log->attempted += kOpsPerBatch;
    size_t done = 0;
    bool broken = false;
    ScopedSpan batch(log->tracer, "wire batch", (uint64_t{1} << 36) + b);
    for (const std::string& triple : WriterBatch(options.seed, b)) {
      Connection::Reply reply;
      Clock::time_point sent = Clock::now();
      bool answered;
      {
        ScopedSpan span(log->tracer, "wire ADD", (uint64_t{1} << 36) + b,
                        batch.id());
        answered = conn.Call("ADD " + triple, &reply);
      }
      if (!answered) {
        log->in_doubt.push_back(triple);
        broken = true;
        break;
      }
      ++done;
      if (reply.ok) {
        log->add_s.push_back(SecondsSince(sent));
        log->acked.push_back(triple);
        log->user_bytes += triple.size();
      } else {
        ++log->failed;
        Note(&log->errors, reply.last);
      }
    }
    if (!broken) {
      Connection::Reply reply;
      Clock::time_point sent = Clock::now();
      bool answered;
      {
        ScopedSpan span(log->tracer, "wire MATERIALIZE",
                        (uint64_t{1} << 36) + b, batch.id());
        answered = conn.Call("MATERIALIZE", &reply);
      }
      if (answered) {
        ++done;
        if (reply.ok) {
          log->materialize_s.push_back(SecondsSince(sent));
          log->visible_s.push_back(SecondsSince(due));
        } else {
          ++log->failed;
          Note(&log->errors, reply.last);
        }
        // The traced run polls the journal counters, which a crash
        // would otherwise take with it.
        if (options.trace && conn.Call("STATS", &reply) && reply.ok) {
          log->stats = ParseStats(reply);
        }
      } else {
        broken = true;
      }
    }
    if (broken) {
      log->failed += kOpsPerBatch - done;
      ++log->failed_batches;
      ++log->next_batch;
      dead->store(true);
      return;
    }
  }
}

/// Restarts `server` on `journal` and times it to its first answer (the
/// first query also rebuilds the closure). Fills `first` with that
/// answer and `stats` with the STATS read right after it.
bool Reopen(const Options& options, const Inputs& inputs,
            const std::string& journal, const std::string& log_stem,
            ServerProcess* server, double* seconds, Connection::Reply* first,
            std::map<std::string, double>* stats) {
  Clock::time_point start = Clock::now();
  Connection conn;
  if (!server->Start(options.server_binary, ServerArgs(journal), log_stem,
                     kStartTimeout) ||
      !conn.Connect(server->port()) ||
      !conn.Call("SPARQL " + inputs.pool[0], first) || !first->ok) {
    return false;
  }
  *seconds = SecondsSince(start);
  Connection::Reply reply;
  if (conn.Call("STATS", &reply) && reply.ok) *stats = ParseStats(reply);
  return true;
}

/// What one traffic session measured.
struct SessionOutcome {
  std::vector<double> read_s;
  double traffic_s = 0;  // time the server was up and taking traffic
  double peak_rss_mb = 0;
};

/// Drives `serving` for `seconds` with `readers` reader connections and
/// the writer. When the server dies, the in-flight commands and every
/// writer batch due before it is back count as failed; a supervisor then
/// restarts it on its journal (as a process manager would) and traffic
/// resumes, so the window is always measured whole and every death is
/// recorded with its signal. After the window the server is SIGKILLed,
/// reopened on its journal, and checked against an in-process Engine fed
/// the same acknowledged ops. Fills the wire/journal/serving per-layer
/// metrics and adds the session's ops to result->attempted / failed.
SessionOutcome Session(const Options& options, const Inputs& inputs,
                       Serving* serving, double seconds, int readers,
                       Tracer& tracer, RunResult* result) {
  SessionOutcome outcome;
  std::vector<std::unique_ptr<ReaderLog>> reader_logs;
  for (int k = 0; k < readers; ++k) {
    reader_logs.push_back(std::make_unique<ReaderLog>(
        options.trace, Stream(options.seed, 1 + k)));
  }
  WriterLog writer_log(options.trace);
  ServerProcess& server = serving->server;
  const std::string log_stem = serving->journal;
  Clock::time_point origin = Clock::now();
  Clock::time_point end =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));

  // Batches due before `until` that the writer never started.
  auto miss_batches = [&](Clock::time_point until) {
    while (origin + writer_log.next_batch * kBatchPeriod < std::min(until, end)) {
      writer_log.attempted += kOpsPerBatch;
      writer_log.failed += kOpsPerBatch;
      ++writer_log.failed_batches;
      ++writer_log.next_batch;
    }
  };

  std::map<std::string, double> totals;  // STATS deltas summed over lives
  std::map<std::string, double> life_start = serving->stats;
  std::vector<double> recovery_s;
  JsonObject deaths;
  int death_count = 0;
  for (int life = 0;; ++life) {
    std::atomic<bool> dead{false};
    writer_log.stats.clear();
    Clock::time_point phase = Clock::now();
    std::vector<std::thread> threads;
    for (int k = 0; k < readers; ++k) {
      threads.emplace_back(Reader, std::cref(inputs), server.port(),
                           (static_cast<uint64_t>(k) + 1) << 48, end, &dead,
                           reader_logs[k].get());
    }
    threads.emplace_back(Writer, std::cref(options), server.port(), origin,
                         end, &dead, &writer_log);
    for (std::thread& t : threads) t.join();
    outcome.traffic_s += SecondsSince(phase);

    std::map<std::string, double> life_end = writer_log.stats;
    if (!dead.load()) {
      Connection conn;
      Connection::Reply reply;
      if (conn.Connect(server.port()) && conn.Call("STATS", &reply) &&
          reply.ok) {
        life_end = ParseStats(reply);
      }
    }
    for (const auto& [name, value] : life_end) {
      auto then = life_start.find(name);
      if (then != life_start.end()) totals[name] += value - then->second;
    }
    if (!dead.load()) break;  // the window closed with the server up

    server.Kill();
    outcome.peak_rss_mb = std::max(outcome.peak_rss_mb, server.peak_rss_mb());
    ++death_count;
    JsonObject death;
    death.Num("at_s", SecondsSince(origin))
        .Bool("died_on_its_own", server.died_on_its_own())
        .Int("signal", server.exit_signal())
        .Str("signal_name", server.exit_signal() > 0
                                ? strsignal(server.exit_signal())
                                : "")
        .Int("exit_code", server.exit_code());
    deaths.Obj(std::to_string(death_count), death);
    if (Clock::now() >= end) break;

    double reopen_s = 0;
    Connection::Reply first;
    life_start.clear();
    if (!Reopen(options, inputs, serving->journal,
                log_stem + ".life" + std::to_string(life + 1), &server,
                &reopen_s, &first, &life_start)) {
      result->Mismatch("server did not come back on its journal");
      break;
    }
    recovery_s.push_back(reopen_s);
    miss_batches(Clock::now());
  }
  miss_batches(end);
  server.Kill();
  outcome.peak_rss_mb = std::max(outcome.peak_rss_mb, server.peak_rss_mb());

  uint64_t reply_bytes = 0;
  std::vector<double> ping_s, traced_s, untraced_s;
  std::vector<std::string> errors = writer_log.errors;
  for (const auto& log : reader_logs) {
    result->attempted += log->attempted;
    result->failed += log->failed;
    reply_bytes += log->reply_bytes;
    outcome.read_s.insert(outcome.read_s.end(), log->read_s.begin(),
                          log->read_s.end());
    ping_s.insert(ping_s.end(), log->ping_s.begin(), log->ping_s.end());
    traced_s.insert(traced_s.end(), log->traced_s.begin(), log->traced_s.end());
    untraced_s.insert(untraced_s.end(), log->untraced_s.begin(),
                      log->untraced_s.end());
    errors.insert(errors.end(), log->errors.begin(), log->errors.end());
    tracer.Merge(log->tracer);
  }
  tracer.Merge(writer_log.tracer);
  result->attempted += writer_log.attempted;
  result->failed += writer_log.failed;

  JsonObject serve;
  serve.Int("server_deaths", death_count)
      .Obj("deaths", deaths)
      .Num("window_s", seconds)
      .Num("traffic_s", outcome.traffic_s)
      .Int("reads", static_cast<int64_t>(outcome.read_s.size()))
      .Int("pings", static_cast<int64_t>(ping_s.size()))
      .Int("writer_batches", static_cast<int64_t>(writer_log.next_batch))
      .Int("failed_batches", static_cast<int64_t>(writer_log.failed_batches))
      .Int("acked_adds", static_cast<int64_t>(writer_log.acked.size()))
      .Int("adds_in_doubt", static_cast<int64_t>(writer_log.in_doubt.size()))
      .Num("writer_late_p50_ms", Median(writer_log.late_s) * 1e3)
      .Num("writer_late_max_ms", Percentile(writer_log.late_s, 1.0) * 1e3)
      .Num("write_visible_p50_ms", Median(writer_log.visible_s) * 1e3)
      .Num("write_visible_p99_ms",
           Percentile(writer_log.visible_s, 0.99) * 1e3);
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size() && i < 5; ++i) {
    error_list += (i > 0 ? ", " : "") + JsonString(errors[i]);
  }
  serve.Raw("errors", error_list + "]");

  // ---- Recovery and checks ------------------------------------------
  triq::Engine reference(ServingOptions());
  auto add = [&](const std::string& triple) {
    char s[256], p[256], o[256];
    return std::sscanf(triple.c_str(), "%255s %255s %255s", s, p, o) == 3 &&
           reference.AddTriple(s, p, o).ok();
  };
  bool ref_ok = reference.LoadTurtle(inputs.turtle).ok();
  for (const std::string& triple : writer_log.acked) ref_ok = add(triple) && ref_ok;

  ServerProcess recovered;
  Connection::Reply first;
  std::map<std::string, double> unused;
  double final_recovery_s = 0;
  bool up = Reopen(options, inputs, serving->journal, log_stem + ".recovered",
                   &recovered, &final_recovery_s, &first, &unused);
  if (up) recovery_s.push_back(final_recovery_s);
  Connection conn;
  Connection::Reply triples;
  if (!up || !conn.Connect(recovered.port()) ||
      !conn.Call("ANSWERS triple", &triples) || !triples.ok) {
    result->Mismatch("recovered server did not answer");
    result->failed += writer_log.acked.size();
  } else {
    std::set<std::string> present;
    for (const std::string& row : triples.rows) {
      if (row.rfind("ROW ", 0) == 0) present.insert(row.substr(4));
    }
    size_t lost = 0;
    for (const std::string& triple : writer_log.acked) {
      if (present.count(triple) == 0) ++lost;
    }
    if (lost > 0) {
      result->failed += lost;
      result->Mismatch(std::to_string(lost) +
                       " acknowledged ADDs missing after recovery");
    }
    // An ADD whose reply was lost is resolved by what recovery found.
    size_t in_doubt_applied = 0;
    for (const std::string& triple : writer_log.in_doubt) {
      if (present.count(triple) > 0) {
        ref_ok = add(triple) && ref_ok;
        ++in_doubt_applied;
      }
    }
    serve.Int("in_doubt_adds_recovered", static_cast<int64_t>(in_doubt_applied));
    ref_ok = ref_ok && reference.Materialize().ok();
    if (!ref_ok) result->Mismatch("reference engine failed to build");
    auto ref_triples = reference.Answers("triple");
    std::vector<std::string> expected;
    if (ref_triples.ok()) {
      for (const triq::chase::Tuple& t : *ref_triples) {
        expected.push_back(reference.dict().Text(t[0].symbol()) + " " +
                           reference.dict().Text(t[1].symbol()) + " " +
                           reference.dict().Text(t[2].symbol()));
      }
    }
    std::vector<std::string> got(present.begin(), present.end());
    if (!ref_triples.ok() ||
        FingerprintLines(expected) != FingerprintLines(got)) {
      ++result->failed;
      result->Mismatch("recovered triples differ from the reference engine");
    }
    for (size_t i = 0; i < kComparedPatterns && i < inputs.pool.size(); ++i) {
      Connection::Reply reply = first;
      std::vector<std::string> want;
      bool same = (i == 0 || conn.Call("SPARQL " + inputs.pool[i], &reply)) &&
                  reply.ok &&
                  ReferenceAnswer(reference, inputs.pool[i], &want) &&
                  FingerprintLines(want) ==
                      FingerprintLines(CanonicalReplyRows(reply));
      if (!same) {
        ++result->failed;
        result->Mismatch("recovered answer differs from the reference: " +
                         inputs.pool[i]);
      }
    }
  }
  recovered.Kill();
  for (const char* suffix : {"", ".ckpt"}) {
    unlink((serving->journal + suffix).c_str());
  }
  serve.Num("final_recovery_s", final_recovery_s);
  result->detail.Obj("serve", serve);

  // ---- Per-layer metrics (wire, journal, serving) -------------------
  auto& layers = result->layers;
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  layers["triq_server.add_p50_us"] = Median(writer_log.add_s) * 1e6;
  layers["engine.incremental_materialize_ms"] =
      Median(writer_log.materialize_s) * 1e3;
  layers["engine.write_visible_p50_ms"] = Median(writer_log.visible_s) * 1e3;
  layers["engine.write_visible_p99_ms"] =
      Percentile(writer_log.visible_s, 0.99) * 1e3;
  layers["engine.rebuilds"] = total("rebuilds");
  layers["engine.journal_records"] = total("journal_records");
  layers["engine.journal_syncs"] = total("journal_syncs");
  layers["engine.journal_checkpoints"] = total("journal_checkpoints");
  layers["engine.journal_bytes_per_user_byte"] =
      writer_log.user_bytes > 0
          ? total("journal_bytes") / static_cast<double>(writer_log.user_bytes)
          : 0;
  layers["triq_server.ping_p50_us"] = Median(ping_s) * 1e6;
  layers["triq_server.ping_p99_us"] = Percentile(ping_s, 0.99) * 1e6;
  layers["triq_server.reply_bytes_per_s"] =
      outcome.traffic_s > 0 ? static_cast<double>(reply_bytes) / outcome.traffic_s
                            : 0;
  layers["engine.recovery_s"] = Median(recovery_s);
  double hits = total("sparql_cache_hits");
  double misses = total("sparql_cache_misses");
  layers["engine.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  layers["engine.cache_evictions"] = total("sparql_cache_evictions");
  layers["trace.overhead_share"] = OverheadShare(traced_s, untraced_s);
  return outcome;
}

}  // namespace

void ProbeServer(const Options& options, const Inputs& inputs,
                 Tracer& tracer, RunResult* result) {
  Serving serving;
  std::string error;
  if (!StartServing(options, inputs, "probe", &serving, &error)) {
    result->Mismatch("server probe: " + error);
    return;
  }
  // The probe's ops are not the workload's: count them apart, and keep
  // every layer the caller measured natively.
  RunResult probe;
  Session(options, inputs, &serving, 1.0, 1, tracer, &probe);
  for (const auto& [name, value] : probe.layers) {
    result->layers.emplace(name, value);
  }
  for (const std::string& m : probe.mismatches) {
    result->Mismatch("server probe: " + m);
  }
  result->detail.Obj("server_probe", probe.detail);
}

RunResult RunServeRw(const Options& options, Tracer& tracer) {
  RunResult result;
  std::vector<double> setups;
  Inputs inputs;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < kSetups; ++i) {
    serving.reset();  // kills the previous set-up's server
    serving = std::make_unique<Serving>();
    Clock::time_point start = Clock::now();
    inputs = MakeInputs(options.seed);
    double generate = SecondsSince(start);
    std::string error;
    if (!StartServing(options, inputs, "serve_rw", serving.get(), &error)) {
      result.attempted = 1;
      result.failed = 1;
      result.Mismatch("set-up: " + error);
      return result;
    }
    setups.push_back(generate + serving->setup_s);
  }

  SessionOutcome outcome = Session(options, inputs, serving.get(), options.seconds,
                                   kReaders, tracer, &result);
  result.metrics["setup_s"] = Median(setups);
  result.metrics["op_p50_ms"] = Median(outcome.read_s) * 1e3;
  result.metrics["op_p99_ms"] = Percentile(outcome.read_s, 0.99) * 1e3;
  result.metrics["ops_per_s"] =
      static_cast<double>(outcome.read_s.size()) / outcome.traffic_s;
  result.metrics["peak_rss_mb"] = outcome.peak_rss_mb;
  result.counters.Int("input_triples", static_cast<int64_t>(inputs.triples));
  result.detail.Obj("op_latency", LatencySummary(outcome.read_s))
      .Str("op", "one SPARQL read over the wire (PINGs excluded); "
                          "ops_per_s is answered reads over the time the "
                          "server served traffic");

  if (tracer.enabled()) {
    std::map<std::string, double> native = result.layers;
    std::unique_ptr<triq::Engine> engine =
        ProbeClosure(inputs, tracer, &result);
    if (engine != nullptr) ProbeQueries(*engine, inputs, 256, tracer, &result);
    for (const auto& [name, value] : native) result.layers[name] = value;
  }
  return result;
}

}  // namespace triqbench
