// Report output: one line per metric on stdout, and the JSON report that
// run.py and spread.py read.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.h"
#include "util/stats.h"

namespace lrb::bench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof text, "%.10g", value);
  return text;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void metrics_json(std::ostringstream& os, const char* section,
                  const std::map<std::string, Metric>& metrics) {
  os << "      " << quoted(section) << ": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "\n" : ",\n") << "        " << quoted(name)
       << ": {\"value\": " << number(metric.value)
       << ", \"unit\": " << quoted(metric.unit);
    if (metric.samples > 0) os << ", \"samples\": " << metric.samples;
    os << "}";
    first = false;
  }
  os << (first ? "}" : "\n      }");
}

void print_section(const char* label,
                   const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-6s %-34s %14.6g %s", label, name.c_str(), metric.value,
                metric.unit.c_str());
    if (metric.samples > 0) std::printf("  (n=%zu)", metric.samples);
    std::printf("\n");
  }
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

void print_report(const WorkloadReport& report) {
  std::printf(
      "%s: %s, attempted=%zu failed=%zu mismatches=%zu sheds=%zu\n",
      report.name.c_str(), report.correct() ? "correct" : "NOT CORRECT",
      report.attempted, report.failed, report.mismatches, report.sheds);
  for (const auto& note : report.notes) {
    std::printf("  note   %s\n", note.c_str());
  }
  print_section("e2e", report.end_to_end);
  print_section("tail", report.reported);
  print_section("layer", report.per_layer);
  std::fflush(stdout);
}

std::string reports_json(const std::vector<WorkloadReport>& all,
                         std::uint64_t seed, double seconds, bool traced) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"lrb-e2e-bench-v1\",\n  \"seed\": " << seed
     << ",\n  \"seconds\": " << number(seconds)
     << ",\n  \"traced\": " << (traced ? "true" : "false")
     << ",\n  \"workloads\": {";
  bool first = true;
  for (const WorkloadReport& r : all) {
    os << (first ? "\n" : ",\n") << "    " << quoted(r.name) << ": {\n"
       << "      \"correct\": " << (r.correct() ? "true" : "false") << ",\n"
       << "      \"complete\": " << (r.complete ? "true" : "false") << ",\n"
       << "      \"valid\": " << (r.valid ? "true" : "false") << ",\n"
       << "      \"server_exit_ok\": " << (r.server_exit_ok ? "true" : "false")
       << ",\n      \"attempted\": " << r.attempted
       << ",\n      \"failed\": " << r.failed
       << ",\n      \"mismatches\": " << r.mismatches
       << ",\n      \"sheds\": " << r.sheds << ",\n      \"notes\": [";
    for (std::size_t i = 0; i < r.notes.size(); ++i) {
      os << (i > 0 ? ", " : "") << quoted(r.notes[i]);
    }
    os << "],\n";
    metrics_json(os, "end_to_end", r.end_to_end);
    os << ",\n";
    metrics_json(os, "reported", r.reported);
    os << ",\n";
    metrics_json(os, "per_layer", r.per_layer);
    os << "\n    }";
    first = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace lrb::bench
