// telemetry_report — reads a telemetry JSONL file (the Telemetry facade's
// jsonl_path sink) and prints a per-phase wall-clock breakdown plus the
// metric tables. Usage:
//
//   telemetry_report <run.jsonl> [--top N] [--no-metrics] [--strict]
//
// Each line is parsed with obs::parse_json, the reader the run ledger and
// fedra_report use. Lines that are not one JSON object (torn writes from a
// crashed or concurrent run) are skipped and counted; the report still
// renders from whatever parsed. `--strict` turns any skipped line into a
// nonzero exit for CI use. A phase's share is its total over the total of
// root spans (no parent_span_id), so nested phases are not counted twice.
// Histogram quantiles come from telemetry::HistogramSnapshot::percentile
// over the serialized buckets.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_min.hpp"
#include "telemetry/metrics.hpp"
#include "util/argparse.hpp"

namespace {

using fedra::obs::JsonValue;

struct PhaseAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

/// Non-negative integer field; 0 for anything a uint64 cannot hold.
std::uint64_t to_count(const JsonValue& v) {
  const double d = v.number_or(0.0);
  return d > 0.0 && d < 0x1p64 ? static_cast<std::uint64_t>(d) : 0;
}

/// Rebuilds the snapshot a histogram line was written from (the sink
/// prints bounds, bucket_counts, count, sum, min and max). False when the
/// bucket shape is not bounds + 1 counts, which percentile() relies on.
bool histogram_from(const JsonValue& v, std::string name,
                    fedra::telemetry::HistogramSnapshot& h) {
  h.name = std::move(name);
  if (const JsonValue* count = v.find("count")) h.count = to_count(*count);
  h.sum = v.get_number("sum");
  h.min = v.get_number("min");
  h.max = v.get_number("max");
  if (const JsonValue* bounds = v.find("bounds");
      bounds != nullptr && bounds->is_array()) {
    for (const JsonValue& b : bounds->array) h.bounds.push_back(b.number_or(0));
  }
  if (const JsonValue* counts = v.find("bucket_counts");
      counts != nullptr && counts->is_array()) {
    for (const JsonValue& c : counts->array) h.counts.push_back(to_count(c));
  }
  return h.counts.size() == h.bounds.size() + 1;
}

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
  std::vector<fedra::telemetry::HistogramSnapshot> histograms;
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
    // fail the parse and are skipped.
    JsonValue v;
    if (!fedra::obs::parse_json(line, v) || !v.is_object()) {
      ++bad_lines;
      continue;
    }
    const std::string type = v.get_string("type");
    std::string name = v.get_string("name");
    if (name.empty()) {
      ++bad_lines;
      continue;
    }
    if (type == "span") {
      const JsonValue* dur_v = v.find("dur_us");
      if (dur_v == nullptr || !dur_v->is_number()) {
        ++bad_lines;
        continue;
      }
      const double dur = dur_v->number;
      auto& agg = phases[name];
      ++agg.count;
      agg.total_us += dur;
      agg.max_us = std::max(agg.max_us, dur);
      // Spans with no parent (parent_span_id absent or 0x0) are roots.
      if (v.get_string("parent_span_id", "0x0") == "0x0") {
        root_total_us += dur;
      }
    } else if (type == "counter") {
      counters.emplace_back(std::move(name), v.get_number("value"));
    } else if (type == "gauge") {
      gauges.emplace_back(std::move(name), v.get_number("value"));
    } else if (type == "histogram") {
      fedra::telemetry::HistogramSnapshot h;
      if (!histogram_from(v, std::move(name), h)) {
        ++bad_lines;
        continue;
      }
      histograms.push_back(std::move(h));
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
      std::printf("%-28s %10s %12s %12s %12s %12s %12s %12s\n", "name",
                  "count", "mean", "p50", "p90", "p99", "p99.9", "max");
      for (const auto& h : histograms) {
        std::printf(
            "%-28s %10llu %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g\n",
            h.name.c_str(), static_cast<unsigned long long>(h.count),
            h.mean(), h.percentile(50.0), h.percentile(90.0),
            h.percentile(99.0), h.percentile(99.9), h.max);
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
