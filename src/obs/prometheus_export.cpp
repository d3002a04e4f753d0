#include "obs/prometheus_export.hpp"

#include <cstdio>
#include <fstream>
#include <set>

namespace rtseed::obs {

std::string prometheus_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + prometheus_escape(v) + "\"";
  }
  out += "}";
  return out;
}

// Log-bucketed tail histogram: only non-empty buckets get an le entry
// (the full geometry is ~2k buckets), which is valid Prometheus — the
// cumulative counts stay monotone over any le subset.
void render_hdr_histogram(std::string& out,
                          const MetricsRegistry::Entry& entry) {
  const auto* h = entry.hdr;
  const common::usize end = h->highest_bucket();
  common::u64 cumulative = 0;
  for (common::usize i = 0; i < end; ++i) {
    const common::u64 n = h->bucket(i);
    if (n == 0) continue;
    cumulative += n;
    Labels labels = entry.labels;
    labels.emplace_back(
        "le", std::to_string(HdrHistogram::bucket_hi(i) - 1));
    out += entry.name + "_bucket" + label_block(labels) + " " +
           std::to_string(cumulative) + "\n";
  }
  Labels inf_labels = entry.labels;
  inf_labels.emplace_back("le", "+Inf");
  out += entry.name + "_bucket" + label_block(inf_labels) + " " +
         std::to_string(h->count()) + "\n";
  out += entry.name + "_sum" + label_block(entry.labels) + " " +
         std::to_string(h->sum()) + "\n";
  out += entry.name + "_count" + label_block(entry.labels) + " " +
         std::to_string(h->count()) + "\n";
}

}  // namespace

std::string render_prometheus(const MetricsRegistry& registry) {
  std::string out;
  std::set<std::string> headered;
  for (const auto& entry : registry.entries()) {
    if (headered.insert(entry.name).second) {
      out += "# HELP " + entry.name + " " + entry.help + "\n";
      out += "# TYPE " + entry.name + " ";
      out += metric_type_name(entry.type);
      out += "\n";
    }
    switch (entry.type) {
      case MetricType::kCounter:
        out += entry.name + label_block(entry.labels) + " " +
               std::to_string(entry.counter->value()) + "\n";
        break;
      case MetricType::kGauge:
        out += entry.name + label_block(entry.labels) + " " +
               format_value(entry.gauge->value()) + "\n";
        break;
      case MetricType::kHdrHistogram:
        render_hdr_histogram(out, entry);
        break;
    }
  }
  return out;
}

common::Status write_prometheus(const std::string& path,
                                const MetricsRegistry& registry) {
  std::ofstream out(path);
  if (!out) return common::unavailable("cannot open " + path);
  out << render_prometheus(registry);
  return out.good() ? common::Status::ok()
                    : common::unavailable("write failed: " + path);
}

}  // namespace rtseed::obs
