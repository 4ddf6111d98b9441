#include "util.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

namespace triqbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t FingerprintLines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (unsigned char c : line) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  return Raw(key, JsonNumber(value));
}
JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}
JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonString(value));
}
JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}
JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  return Raw(key, value.str());
}
JsonObject& JsonObject::Raw(const std::string& key, std::string rendered) {
  fields_.emplace_back(key, std::move(rendered));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int32_t Tracer::Begin(const char* name, uint64_t request, int32_t parent) {
  spans_.push_back(SpanRecord{name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) { spans_[span].end_ns = NowNs(); }

void Tracer::Rename(int32_t span, const char* name) {
  spans_[span].name = name;
}

void Tracer::Merge(const Tracer& other) {
  int32_t offset = static_cast<int32_t>(spans_.size());
  for (SpanRecord span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) * 1e-9);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& span : spans_) epoch = std::min(epoch, span.start_ns);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\": " << i
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_us\": " << JsonNumber((s.start_ns - epoch) * 1e-3)
        << ", \"end_us\": " << JsonNumber((s.end_ns - epoch) * 1e-3)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

JsonObject HostCalibration() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  // Fixed kernel: sort 2^20 pseudo-random 64-bit keys, best of three.
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    std::mt19937_64 rng(12345);
    std::vector<uint64_t> keys(1 << 20);
    for (uint64_t& k : keys) k = rng();
    Clock::time_point start = Clock::now();
    std::sort(keys.begin(), keys.end());
    times.push_back(SecondsSince(start) * 1e3);
  }
  JsonObject host;
  host.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Str("cpu_model", model)
      .Str("build_type", TRIQBENCH_BUILD_TYPE)
      .Num("calibration_sort_ms", *std::min_element(times.begin(), times.end()));
  return host;
}

JsonObject LatencySummary(const std::vector<double>& seconds) {
  JsonObject out;
  out.Int("n", static_cast<int64_t>(seconds.size()));
  const std::pair<const char*, double> points[] = {
      {"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}, {"p999_ms", 0.999},
      {"max_ms", 1.0}};
  for (const auto& [name, q] : points) {
    out.Num(name, Percentile(seconds, q) * 1e3);
  }
  return out;
}

std::pair<uint64_t, uint64_t> CpuStealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0, value = 0;
  stat >> cpu;
  for (int field = 0; field < 10 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::string OutDir() {
  const char* dir = ".bench_out";
  mkdir(dir, 0755);
  return dir;
}

}  // namespace triqbench
