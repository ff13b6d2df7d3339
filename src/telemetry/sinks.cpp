#include "telemetry/sinks.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace fedra::telemetry {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct SpanAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

std::map<std::string, SpanAgg> aggregate_spans(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanAgg> agg;
  for (const auto& s : spans) {
    auto& a = agg[s.name];
    if (a.count == 0) {
      a.min_us = s.dur_us;
      a.max_us = s.dur_us;
    } else {
      a.min_us = std::min(a.min_us, s.dur_us);
      a.max_us = std::max(a.max_us, s.dur_us);
    }
    ++a.count;
    a.total_us += s.dur_us;
  }
  return agg;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
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
  return out;
}

void write_jsonl(std::ostream& os, const MetricsSnapshot& metrics,
                 const std::vector<SpanRecord>& spans) {
  for (const auto& [name, value] : metrics.counters) {
    os << "{\"type\":\"counter\",\"name\":\"" << json_escape(name)
       << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, value] : metrics.gauges) {
    os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(name)
       << "\",\"value\":" << fmt_double(value) << "}\n";
  }
  for (const auto& h : metrics.histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"" << json_escape(h.name)
       << "\",\"count\":" << h.count << ",\"sum\":" << fmt_double(h.sum)
       << ",\"min\":" << fmt_double(h.min)
       << ",\"max\":" << fmt_double(h.max)
       << ",\"mean\":" << fmt_double(h.mean())
       << ",\"p50\":" << fmt_double(h.percentile(50.0))
       << ",\"p90\":" << fmt_double(h.percentile(90.0))
       << ",\"p99\":" << fmt_double(h.percentile(99.0)) << ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) os << ',';
      os << fmt_double(h.bounds[i]);
    }
    os << "],\"bucket_counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) os << ',';
      os << h.counts[i];
    }
    os << "]}\n";
  }
  for (const auto& s : spans) {
    os << "{\"type\":\"span\",\"name\":\"" << json_escape(s.name)
       << "\",\"ts_us\":" << fmt_double(s.start_us)
       << ",\"dur_us\":" << fmt_double(s.dur_us) << ",\"tid\":" << s.tid;
    if (s.trace_id != 0) {
      // Hex strings, not numbers: full-width 64-bit ids do not survive a
      // double-precision JSON number parse.
      os << ",\"trace_id\":\"" << fmt_hex64(s.trace_id) << "\",\"span_id\":\""
         << fmt_hex64(s.span_id) << "\",\"parent_span_id\":\""
         << fmt_hex64(s.parent_span_id) << '"';
    }
    os << "}\n";
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanRecord>& spans) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"fedra\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << fmt_double(s.start_us)
       << ",\"dur\":" << fmt_double(s.dur_us);
    if (s.trace_id != 0) {
      // The causal annotations: every span of one serve request / sweep
      // arm carries the same trace id even when rows complete on the
      // batcher thread and the client blocked elsewhere.
      os << ",\"args\":{\"trace_id\":\"" << fmt_hex64(s.trace_id)
         << "\",\"span_id\":\"" << fmt_hex64(s.span_id)
         << "\",\"parent_span_id\":\"" << fmt_hex64(s.parent_span_id)
         << "\"}";
    }
    os << "}";
  }
  os << "]}\n";
}

std::string prometheus_escape_help(const std::string& text) {
  // Exposition-format HELP escaping: backslash and newline only.
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

void write_prometheus(std::ostream& os, const MetricsSnapshot& metrics) {
  for (const auto& [name, value] : metrics.counters) {
    const std::string n = prometheus_sanitize(name);
    os << "# HELP " << n << " fedra metric " << prometheus_escape_help(name)
       << '\n';
    os << "# TYPE " << n << " counter\n" << n << ' ' << value << '\n';
  }
  for (const auto& [name, value] : metrics.gauges) {
    const std::string n = prometheus_sanitize(name);
    os << "# HELP " << n << " fedra metric " << prometheus_escape_help(name)
       << '\n';
    os << "# TYPE " << n << " gauge\n" << n << ' ' << fmt_double(value)
       << '\n';
  }
  for (const auto& h : metrics.histograms) {
    const std::string n = prometheus_sanitize(h.name);
    os << "# HELP " << n << " fedra metric " << prometheus_escape_help(h.name)
       << '\n';
    os << "# TYPE " << n << " histogram\n";
    // Exposition buckets are CUMULATIVE, unlike the per-bucket counts the
    // registry stores; the +Inf bucket always equals the total count.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.counts.size() ? h.counts[i] : 0;
      os << n << "_bucket{le=\"" << fmt_double(h.bounds[i]) << "\"} "
         << cumulative << '\n';
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    os << n << "_sum " << fmt_double(h.sum) << '\n';
    os << n << "_count " << h.count << '\n';
  }
}

std::string format_text_summary(const MetricsSnapshot& metrics,
                                const std::vector<SpanRecord>& spans) {
  std::ostringstream out;
  char line[256];

  if (!metrics.counters.empty()) {
    out << "== counters ==\n";
    for (const auto& [name, value] : metrics.counters) {
      std::snprintf(line, sizeof(line), "  %-32s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << line;
    }
  }
  if (!metrics.gauges.empty()) {
    out << "== gauges ==\n";
    for (const auto& [name, value] : metrics.gauges) {
      std::snprintf(line, sizeof(line), "  %-32s %.6g\n", name.c_str(),
                    value);
      out << line;
    }
  }
  if (!metrics.histograms.empty()) {
    out << "== histograms ==\n";
    std::snprintf(line, sizeof(line), "  %-32s %10s %12s %12s %12s %12s\n",
                  "name", "count", "mean", "p50", "p99", "max");
    out << line;
    for (const auto& h : metrics.histograms) {
      std::snprintf(line, sizeof(line),
                    "  %-32s %10llu %12.3f %12.3f %12.3f %12.3f\n",
                    h.name.c_str(),
                    static_cast<unsigned long long>(h.count), h.mean(),
                    h.percentile(50.0), h.percentile(99.0), h.max);
      out << line;
    }
  }
  const auto agg = aggregate_spans(spans);
  if (!agg.empty()) {
    // Shares are of root-span time: a nested span's time is already
    // inside its parent's, so summing every span would count it twice.
    double root_total = 0.0;
    for (const auto& s : spans) {
      if (s.parent_span_id == 0) root_total += s.dur_us;
    }
    out << "== spans ==\n";
    std::snprintf(line, sizeof(line),
                  "  %-24s %8s %12s %12s %12s %7s\n", "phase", "count",
                  "total_ms", "mean_ms", "max_ms", "share");
    out << line;
    for (const auto& [name, a] : agg) {
      std::snprintf(
          line, sizeof(line),
          "  %-24s %8llu %12.3f %12.3f %12.3f %6.1f%%\n", name.c_str(),
          static_cast<unsigned long long>(a.count), a.total_us / 1e3,
          a.total_us / 1e3 / static_cast<double>(a.count), a.max_us / 1e3,
          root_total > 0.0 ? 100.0 * a.total_us / root_total : 0.0);
      out << line;
    }
  }
  return out.str();
}

}  // namespace fedra::telemetry
