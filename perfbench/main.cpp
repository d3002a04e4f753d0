// rtseed_perfbench --workload <oms_period|shard_journal>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>] [--commit <id>]
//
// Prints a host/provenance line, every metric by name with its unit, and
// as the LAST line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 without that line when the run cannot complete.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/chrome_trace.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

Result run(const Options& options) {
  if (options.workload == "oms_period") return perfbench::run_oms_period(options);
  return perfbench::run_shard_journal(options);
}

std::string number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void print_host(const Options& options) {
  using rtseed::obs::json_escape;
  const perfbench::Host host = perfbench::probe_host(options.workdir);
  std::printf(
      "host: {\"nproc\": %d, \"cpu_model\": \"%s\", \"kernel\": \"%s\", "
      "\"rt_degraded\": %s, \"journal_fs\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"commit\": \"%s\"}\n",
      host.nproc, json_escape(host.cpu_model).c_str(),
      json_escape(host.kernel).c_str(), host.rt_degraded ? "true" : "false",
      json_escape(host.journal_fs).c_str(),
      json_escape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0,
      json_escape(options.commit).c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload oms_period|shard_journal "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--commit ID]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0 ||
      (options.workload != "oms_period" &&
       options.workload != "shard_journal")) {
    return usage(argv[0]);
  }

  print_host(options);
  Result result;
  try {
    if (!options.trace) {
      result = run(options);
    } else {
      // Tracing overhead: an untraced half, then the traced half whose
      // per-layer metrics are reported.
      Options half = options;
      half.seconds = options.seconds / 2;
      half.trace = false;
      const Result plain = run(half);
      half.trace = true;
      result = run(half);
      result.values["trace.overhead_us"] =
          result.values["latency_p50_us"] - plain.values.at("latency_p50_us");
      result.values["tail.latency_p99_us"] =
          plain.values.at("tail.latency_p99_us");
      result.attempted += plain.attempted;
      result.failed += plain.failed;
      result.violations.insert(result.violations.end(),
                               plain.violations.begin(),
                               plain.violations.end());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("\n== %s seed=%llu seconds=%s %s ==\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(),
              options.trace ? "traced" : "untraced");
  for (const auto& [name, text] : result.notes) {
    std::printf("  %-52s %s\n", name.c_str(), text.c_str());
  }
  const auto& specs = options.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::printf("\n  %-36s %14s %-6s  %s\n", "metric", "value", "unit",
              options.trace ? "should move" : "meaning");
  for (const auto& spec : specs) {
    const auto it = result.values.find(spec.name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    std::printf("  %-36s %14.6g %-6s  %s\n", spec.name, value, spec.unit,
                spec.note);
  }
  std::printf("\n  attempted %ld, failed %ld\n", result.attempted,
              result.failed);
  for (const auto& v : result.violations) {
    std::printf("  CHECK FAILED: %s\n", v.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    const auto it = result.values.find(spec.name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
