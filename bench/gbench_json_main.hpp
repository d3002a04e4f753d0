// Drop-in replacement for BENCHMARK_MAIN() that accepts the repo-wide
// `--json <path>` flag and translates it to google-benchmark's
// --benchmark_out/--benchmark_out_format pair, so every bench binary —
// google-benchmark micros and hand-rolled harnesses alike — takes the
// same flag and CI archives one JSON per binary.  The JSON gets the same
// top-level "host" block as the hand-rolled harnesses' (host_info.hpp).
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "host_info.hpp"

namespace rtseed::bench {

/// Inserts `"host": {...}` as the first member of the JSON object in
/// `path` (google-benchmark's own "context" has no CPU model or kernel).
inline void add_host_block(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string json = text.str();
  if (json.empty() || json[0] != '{') return;
  json.insert(1, "\n  \"host\": {" + host_fields() + "},");
  std::ofstream(path, std::ios::trunc) << json;
}

inline int gbench_json_main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::string json_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      json_path = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      args.push_back("--benchmark_out=" + json_path);
      args.push_back("--benchmark_out_format=json");
      break;
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) add_host_block(json_path);
  return 0;
}

}  // namespace rtseed::bench

#define RTSEED_BENCHMARK_JSON_MAIN()                      \
  int main(int argc, char** argv) {                       \
    return rtseed::bench::gbench_json_main(argc, argv);   \
  }
