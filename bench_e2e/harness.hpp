// Measurement plumbing of the end-to-end benchmark: clocks, percentiles,
// per-layer time accounting, the environment record and the result line.
// Header-only so the self-tests exercise exactly what the benchmark runs.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace fedra::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}

/// Samples strictly needed so that at least ten lie beyond percentile p:
/// the smallest n with n * (1 - p/100) >= 10 (100 for p90, 1000 for p99).
inline std::size_t min_samples_for(double p) {
  const double n = 10.0 / (1.0 - p / 100.0);
  const double nearest = std::round(n);  // absorb 1 - p/100 rounding error
  return static_cast<std::size_t>(
      std::abs(n - nearest) < 1e-6 * n ? nearest : std::ceil(n));
}

/// The highest of the reported percentiles {50, 90, 99, 99.9} that has at
/// least ten of `n` samples beyond it; 0 when not even the median does.
inline double highest_supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (n >= min_samples_for(p)) return p;
  }
  return 0.0;
}

/// Wall time spent inside each layer's public calls, timed from outside
/// the library. Only calls made directly by the benchmark's loop are
/// added, never one running inside another timed call, so the layer
/// totals never double count and their sum is comparable to the wall.
class LayerTimes {
 public:
  void add(const std::string& layer, double seconds) {
    Entry& e = entries_[layer];
    e.samples.push_back(seconds);
    e.total += seconds;
  }

  std::size_t count(const std::string& layer) const {
    const auto it = entries_.find(layer);
    return it == entries_.end() ? 0 : it->second.samples.size();
  }
  double total(const std::string& layer) const {
    const auto it = entries_.find(layer);
    return it == entries_.end() ? 0.0 : it->second.total;
  }
  double mean(const std::string& layer) const {
    const std::size_t n = count(layer);
    return n == 0 ? 0.0 : total(layer) / static_cast<double>(n);
  }
  double median(const std::string& layer) const {
    const auto it = entries_.find(layer);
    return it == entries_.end() ? 0.0 : e2e::median(it->second.samples);
  }

  /// Sum of every layer's time.
  double sum() const {
    double acc = 0.0;
    for (const auto& [name, e] : entries_) acc += e.total;
    return acc;
  }

  /// Share of `wall` covered by layer time.
  double coverage(double wall) const {
    return wall > 0.0 ? sum() / wall : 0.0;
  }

 private:
  struct Entry {
    std::vector<double> samples;
    double total = 0.0;
  };
  std::map<std::string, Entry> entries_;
};

/// Traced wall over untraced wall of the same work.
inline double trace_overhead(double traced_wall, double untraced_wall) {
  return untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: metrics plus the tally of output checks.
struct Result {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< printed as comment lines

  /// Adds a metric; a non-finite value fails a check (JSON cannot hold it).
  void add(std::string name, double value, std::string unit) {
    check(std::isfinite(value), "non-finite metric " + name);
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Records one checked operation; a failure keeps its description.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }

  bool correct() const { return failed == 0; }
};

/// Peak resident set size of this process (VmHWM), in MiB.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// The result line: one JSON object with exactly the keys correct,
/// attempted, failed and metrics. Values keep all 17 significant digits.
inline std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace fedra::e2e
