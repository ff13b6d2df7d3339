// telemetry_report — reads a telemetry JSONL file (the Telemetry facade's
// jsonl_path sink) and prints a per-phase wall-clock breakdown plus the
// metric tables. Usage:
//
//   telemetry_report <run.jsonl> [--top N] [--no-metrics] [--strict]
//
// The JSONL is produced by fedra itself (telemetry/sinks.cpp), so the
// parser is a deliberately small line-oriented key extractor, not a
// general JSON parser. Truncated or interleaved lines (torn writes from
// a crashed or concurrent run) are skipped and counted; the report still
// renders from whatever parsed. `--strict` turns any skipped line into a
// nonzero exit for CI use. A phase's share is its total over the total of
// root spans (no parent_span_id), so nested phases are not counted twice.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/argparse.hpp"

namespace {

// Extracts the raw token following `"key":` in a single-line JSON object.
// Returns false when the key is absent.
bool extract_token(const std::string& line, const std::string& key,
                   std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t start = pos + needle.size();
  if (start >= line.size()) return false;
  if (line[start] == '"') {
    ++start;
    std::string value;
    for (std::size_t i = start; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        value += line[i + 1];
        ++i;
        continue;
      }
      if (line[i] == '"') break;
      value += line[i];
    }
    out = value;
    return true;
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  out = line.substr(start, end - start);
  return true;
}

// Span ids are hex strings ("0x1f"); 0 (no parent) also for garbage.
std::uint64_t parse_span_id(const std::string& token) {
  try {
    return std::stoull(token, nullptr, 16);
  } catch (...) {
    return 0;
  }
}

bool extract_double(const std::string& line, const std::string& key,
                    double& out) {
  std::string token;
  if (!extract_token(line, key, token)) return false;
  try {
    out = std::stod(token);
  } catch (...) {
    return false;
  }
  return true;
}

// Extracts a flat numeric array following `"key":[...]`. Histogram lines
// carry the raw geometric buckets as "bounds" and "bucket_counts"; the
// percentile table below re-derives quantiles from them so the report
// works on logs that predate the precomputed p50/p90/p99 fields.
bool extract_array(const std::string& line, const std::string& key,
                   std::vector<double>& out) {
  const std::string needle = "\"" + key + "\":[";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  const auto end = line.find(']', i);
  if (end == std::string::npos) return false;
  out.clear();
  while (i < end) {
    std::size_t next = line.find(',', i);
    if (next == std::string::npos || next > end) next = end;
    try {
      out.push_back(std::stod(line.substr(i, next - i)));
    } catch (...) {
      return false;
    }
    i = next + 1;
  }
  return true;
}

// Mirror of HistogramSnapshot::percentile: linear interpolation inside
// the first bucket whose cumulative count reaches the target, clamped to
// the observed extrema.
double bucket_percentile(double q, double count, double min, double max,
                         const std::vector<double>& bounds,
                         const std::vector<double>& counts) {
  if (count <= 0.0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  const double target = q / 100.0 * count;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0.0) continue;
    const double lo_seen = seen;
    seen += counts[i];
    if (seen < target) continue;
    const double lo = i == 0 ? min : bounds[i - 1];
    const double hi = i < bounds.size() ? std::min(bounds[i], max) : max;
    const double frac = (target - lo_seen) / counts[i];
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;
}

struct PhaseAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

struct HistRow {
  std::string name;
  double count = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  bool has_exact = false;  // line carried precomputed p50/p90/p99 fields
  std::vector<double> bounds;
  std::vector<double> bucket_counts;
};

}  // namespace

int main(int argc, char** argv) {
  fedra::ArgParser args(argc, argv);
  const bool show_metrics = !args.flag("no-metrics");
  const bool strict = args.flag("strict");
  const auto top = static_cast<std::size_t>(args.get_int("top", 0));
  if (args.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: telemetry_report <run.jsonl> [--top N] "
                 "[--no-metrics] [--strict]\n");
    return 2;
  }
  const std::string path = args.positionals().front();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "telemetry_report: cannot open %s\n", path.c_str());
    return 1;
  }

  std::map<std::string, PhaseAgg> phases;
  double root_total_us = 0.0;  ///< share denominator: root spans only
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistRow> histograms;
  std::size_t bad_lines = 0;

  std::string line;
  while (std::getline(in, line)) {
    // Strip the trailing \r of CRLF files before the torn-line check.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    // A sink line is exactly one JSON object. A torn write (crashed run,
    // interleaved appends) loses the tail or splices two objects; both
    // fail this shape check and are skipped instead of feeding the key
    // extractor garbage.
    if (line.front() != '{' || line.back() != '}' ||
        line.find('{', 1) != std::string::npos) {
      ++bad_lines;
      continue;
    }
    std::string type;
    if (!extract_token(line, "type", type)) {
      ++bad_lines;
      continue;
    }
    std::string name;
    if (!extract_token(line, "name", name)) {
      ++bad_lines;
      continue;
    }
    if (type == "span") {
      double dur = 0.0;
      if (!extract_double(line, "dur_us", dur)) {
        ++bad_lines;
        continue;
      }
      auto& agg = phases[name];
      ++agg.count;
      agg.total_us += dur;
      agg.max_us = std::max(agg.max_us, dur);
      // Spans without causal ids (parent_span_id absent) are roots.
      std::string parent;
      if (!extract_token(line, "parent_span_id", parent) ||
          parse_span_id(parent) == 0) {
        root_total_us += dur;
      }
    } else if (type == "counter") {
      double v = 0.0;
      extract_double(line, "value", v);
      counters.emplace_back(name, v);
    } else if (type == "gauge") {
      double v = 0.0;
      extract_double(line, "value", v);
      gauges.emplace_back(name, v);
    } else if (type == "histogram") {
      HistRow row;
      row.name = name;
      extract_double(line, "count", row.count);
      extract_double(line, "mean", row.mean);
      extract_double(line, "min", row.min);
      row.has_exact = extract_double(line, "p50", row.p50);
      extract_double(line, "p90", row.p90);
      extract_double(line, "p99", row.p99);
      extract_double(line, "max", row.max);
      extract_array(line, "bounds", row.bounds);
      extract_array(line, "bucket_counts", row.bucket_counts);
      // Older logs without the precomputed quantile fields: estimate
      // from the geometric buckets instead of printing zeros.
      if (!row.has_exact && !row.bucket_counts.empty()) {
        row.p50 = bucket_percentile(50.0, row.count, row.min, row.max,
                                    row.bounds, row.bucket_counts);
        row.p90 = bucket_percentile(90.0, row.count, row.min, row.max,
                                    row.bounds, row.bucket_counts);
        row.p99 = bucket_percentile(99.0, row.count, row.min, row.max,
                                    row.bounds, row.bucket_counts);
      }
      histograms.push_back(std::move(row));
    } else {
      ++bad_lines;
    }
  }

  if (!phases.empty()) {
    std::vector<std::pair<std::string, PhaseAgg>> sorted(phases.begin(),
                                                         phases.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.second.total_us > b.second.total_us;
              });
    if (top > 0 && sorted.size() > top) sorted.resize(top);
    std::printf("== per-phase wall-clock breakdown (%s) ==\n", path.c_str());
    std::printf("%-24s %10s %14s %12s %12s %7s\n", "phase", "count",
                "total_ms", "mean_ms", "max_ms", "share");
    for (const auto& [name, agg] : sorted) {
      std::printf("%-24s %10llu %14.3f %12.3f %12.3f %6.1f%%\n",
                  name.c_str(),
                  static_cast<unsigned long long>(agg.count),
                  agg.total_us / 1e3,
                  agg.total_us / 1e3 / static_cast<double>(agg.count),
                  agg.max_us / 1e3,
                  root_total_us > 0.0 ? 100.0 * agg.total_us / root_total_us
                                      : 0.0);
    }
  } else {
    std::printf("no span records in %s\n", path.c_str());
  }

  // Fault/straggler summary: the sim.fault.* counters written by the
  // simulator and the fl.* delivery counters written by FedAvg. Shown
  // first — when a run had churn, this is what you look at.
  {
    auto find = [&](const std::string& name, double& out) {
      for (const auto& [n, v] : counters) {
        if (n == name) {
          out = v;
          return true;
        }
      }
      return false;
    };
    double iterations = 0.0;
    find("sim.iterations", iterations);
    struct FaultRow {
      const char* name;
      const char* what;
    };
    const FaultRow rows[] = {
        {"sim.fault.dropped_devices", "mid-round dropouts"},
        {"sim.fault.timeouts", "deadline timeouts"},
        {"sim.fault.crashes", "whole-round crashes"},
        {"sim.fault.upload_failures", "uploads lost (retries exhausted)"},
        {"sim.fault.retries", "upload retries"},
        {"sim.fault.partial_rounds", "partial rounds"},
        {"fl.lost_updates", "FedAvg updates lost"},
        {"fl.partial_rounds", "FedAvg partial aggregations"},
        {"fl.wasted_rounds", "FedAvg wasted rounds (nothing arrived)"},
    };
    bool any = false;
    for (const auto& row : rows) {
      double v = 0.0;
      if (!find(row.name, v)) continue;
      if (!any) {
        std::printf("\n== fault summary ==\n");
        any = true;
      }
      std::printf("%-28s %14.0f  %s", row.name, v, row.what);
      if (iterations > 0.0 &&
          std::string(row.name) == "sim.fault.partial_rounds") {
        std::printf(" (%.1f%% of %.0f rounds)", 100.0 * v / iterations,
                    iterations);
      }
      std::printf("\n");
    }
  }

  // Scheduler summary: the pool.* counters written by the work-stealing
  // ThreadPool — total tasks, steals, idle wakeups, and the per-worker
  // task counters (a skewed distribution here means the steal path is not
  // balancing the load). pool.* counters are shown here, not in the
  // generic counter dump below.
  {
    double tasks = 0.0, steals = 0.0, wakeups = 0.0;
    bool have_tasks = false, have_steals = false, have_wakeups = false;
    std::vector<std::pair<std::string, double>> worker_tasks;
    for (const auto& [name, v] : counters) {
      if (name == "pool.tasks") {
        tasks = v;
        have_tasks = true;
      } else if (name == "pool.steal_count") {
        steals = v;
        have_steals = true;
      } else if (name == "pool.idle_wakeups") {
        wakeups = v;
        have_wakeups = true;
      } else if (name.rfind("pool.worker.", 0) == 0) {
        worker_tasks.emplace_back(name, v);
      }
    }
    if (have_tasks || have_steals || have_wakeups || !worker_tasks.empty()) {
      std::printf("\n== scheduler ==\n");
      if (have_tasks) std::printf("%-28s %14.0f\n", "pool.tasks", tasks);
      if (have_steals) {
        std::printf("%-28s %14.0f", "pool.steal_count", steals);
        if (tasks > 0.0) std::printf("  (%.1f%% of tasks)", 100.0 * steals / tasks);
        std::printf("\n");
      }
      if (have_wakeups) {
        std::printf("%-28s %14.0f\n", "pool.idle_wakeups", wakeups);
      }
      std::sort(worker_tasks.begin(), worker_tasks.end());
      for (const auto& [name, v] : worker_tasks) {
        std::printf("%-28s %14.0f", name.c_str(), v);
        if (tasks > 0.0) std::printf("  (%.1f%% of tasks)", 100.0 * v / tasks);
        std::printf("\n");
      }
    }
  }

  // Live-plane summary: counters/gauges written by the embedded HTTP
  // exporter and the flight recorder (live.http.scrapes bumps on every
  // /metrics, /healthz, /statusz hit; live.recorder.dropped is the
  // ring-overwrite count sampled at the last scrape). live.* series are
  // shown here, not in the generic dumps below.
  {
    bool any = false;
    auto live_row = [&](const std::string& name, double v) {
      if (!any) {
        std::printf("\n== live ==\n");
        any = true;
      }
      std::printf("%-28s %14.0f\n", name.c_str(), v);
    };
    for (const auto& [name, v] : counters) {
      if (name.rfind("live.", 0) == 0) live_row(name, v);
    }
    for (const auto& [name, v] : gauges) {
      if (name.rfind("live.", 0) == 0) live_row(name, v);
    }
  }

  if (show_metrics) {
    if (!histograms.empty()) {
      std::printf("\n== histograms ==\n");
      std::printf("%-28s %10s %12s %12s %12s %12s %12s\n", "name", "count",
                  "mean", "p50", "p90", "p99", "max");
      for (const auto& h : histograms) {
        std::printf("%-28s %10.0f %12.4g %12.4g %12.4g %12.4g %12.4g\n",
                    h.name.c_str(), h.count, h.mean, h.p50, h.p90, h.p99,
                    h.max);
      }
      // Bucket-estimated percentile table: re-derives every quantile from
      // the raw geometric buckets (the same interpolation the snapshot
      // uses), so the two tables agreeing is a cross-check that the
      // serialized buckets are self-consistent with the precomputed
      // fields — and the only quantile source for logs lacking them.
      bool header = false;
      for (const auto& h : histograms) {
        if (h.bucket_counts.empty()) continue;
        if (!header) {
          std::printf("\n== percentiles (bucket-estimated) ==\n");
          std::printf("%-28s %10s %12s %12s %12s %12s\n", "name", "buckets",
                      "p50", "p90", "p99", "p99.9");
          header = true;
        }
        std::printf(
            "%-28s %10zu %12.4g %12.4g %12.4g %12.4g\n", h.name.c_str(),
            h.bucket_counts.size(),
            bucket_percentile(50.0, h.count, h.min, h.max, h.bounds,
                              h.bucket_counts),
            bucket_percentile(90.0, h.count, h.min, h.max, h.bounds,
                              h.bucket_counts),
            bucket_percentile(99.0, h.count, h.min, h.max, h.bounds,
                              h.bucket_counts),
            bucket_percentile(99.9, h.count, h.min, h.max, h.bounds,
                              h.bucket_counts));
      }
    }
    bool counters_header = false;
    for (const auto& [name, v] : counters) {
      if (name.rfind("pool.", 0) == 0) continue;  // shown in == scheduler ==
      if (name.rfind("live.", 0) == 0) continue;  // shown in == live ==
      if (!counters_header) {
        std::printf("\n== counters ==\n");
        counters_header = true;
      }
      std::printf("%-28s %14.0f\n", name.c_str(), v);
    }
    bool gauges_header = false;
    for (const auto& [name, v] : gauges) {
      if (name.rfind("live.", 0) == 0) continue;  // shown in == live ==
      if (!gauges_header) {
        std::printf("\n== gauges ==\n");
        gauges_header = true;
      }
      std::printf("%-28s %14.6g\n", name.c_str(), v);
    }
  }
  if (bad_lines > 0) {
    std::fprintf(stderr, "telemetry_report: skipped %zu unparseable lines\n",
                 bad_lines);
    if (strict) return 1;
  }
  return 0;
}
