// The machine a baseline was measured on.  Every committed
// bench/history/BENCH_*.json carries a "host" block built from these, so
// a number is never read without the CPU count, CPU model and kernel that
// produced it.
#pragma once

#include <sys/utsname.h>

#include <fstream>
#include <string>
#include <thread>

namespace rtseed::bench {

/// The CPU model from /proc/cpuinfo ("unknown" when unreadable), with
/// JSON-special characters dropped.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\') model += c;
    }
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
  return "unknown";
}

inline std::string kernel_release() {
  struct utsname uts {};
  return ::uname(&uts) == 0 ? uts.release : "unknown";
}

/// `"cpus": N, "model": "...", "kernel": "..."` — the members of a
/// "host" block, without braces so callers can append their own.
inline std::string host_fields() {
  return "\"cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"model\": \"" + cpu_model() + "\", \"kernel\": \"" +
         kernel_release() + "\"";
}

}  // namespace rtseed::bench
