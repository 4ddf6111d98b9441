// Shared pieces of the benchmark driver: clocks and order statistics, a
// minimal JSON writer, the span tracer, the run result, and the host
// calibration record.
#ifndef TRIQBENCH_UTIL_H_
#define TRIQBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace triqbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Order-independent 64-bit fingerprint of a multiset of strings.
uint64_t FingerprintLines(std::vector<std::string> lines);

/// A JSON object rendered field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  JsonObject& Raw(const std::string& key, std::string rendered);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonString(const std::string& text);
/// Every digit a double carries (the driver compares raw values).
std::string JsonNumber(double value);

/// One timed call into a layer's public function.
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;     // index into the same tracer, -1 for a root
  uint64_t request;   // spans of one request share this id
};

/// In-memory span recorder, one per client thread (no locking). With
/// tracing off every call is a branch on `enabled_`; the spans are
/// written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Turns recording on or off for the calls that follow (the traced
  /// run alternates to measure its own overhead).
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return enabled_ && recording_; }

  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1);
  void End(int32_t span);
  /// Renames a span after the fact (a query is classified as a plan-cache
  /// hit or miss only once it returns).
  void Rename(int32_t span, const char* name);

  /// Appends `other`'s spans, keeping their parent links.
  void Merge(const Tracer& other);

  /// Durations (seconds) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes {"spans": [...]} with times relative to the first span.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_ = true;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when the tracer is not recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request,
             int32_t parent = -1)
      : tracer_(tracer),
        id_(tracer.recording() ? tracer.Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// What one run reports. End-to-end metrics and per-layer metrics are
/// keyed by the names in BENCHMARK.json; `detail` carries everything
/// else (exact work counters, sample counts, notes) and is printed on
/// the line before the result.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  JsonObject detail;
  JsonObject counters;  // exact-match work counters, host independent
  std::vector<std::string> mismatches;

  void Mismatch(const std::string& what) {
    correct = false;
    mismatches.push_back(what);
  }
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// nproc, CPU model, build type and the time of a fixed sorting kernel,
/// so wall-clock drift can be told apart from code drift.
JsonObject HostCalibration();

/// Sample count and percentiles (ms) of op latencies given in seconds.
JsonObject LatencySummary(const std::vector<double>& seconds);

/// Cumulative stolen and total CPU time of all CPUs (/proc/stat ticks);
/// the stolen share over a run shows how noisy the host was.
std::pair<uint64_t, uint64_t> CpuStealTicks();

/// Directory for run artefacts (journals, traces), created on demand
/// inside the working directory.
std::string OutDir();

}  // namespace triqbench

#endif  // TRIQBENCH_UTIL_H_
