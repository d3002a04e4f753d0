// Scaled-down native companion to Figs. 10-13: the four overheads
// measured on REAL middleware threads on this host.
//
// The paper's sweep needs 228 hardware threads; this binary runs the same
// protocol (SCHED_FIFO threads, condvars, per-thread deadline timers,
// always-overrunning optional parts) at host scale — np ∈ {1, 2, 4} — and
// under two synthetic background loads mirroring the paper's:
//   cpu        — branch-heavy infinite loops on every CPU (SCHED_OTHER, so
//                the RT threads preempt them, as on the Xeon Phi);
//   cpu-memory — 512 KB read/write loops (the paper sizes this to the Phi's
//                L2) polluting the caches.
//
// Flags: --trace out.json   write a Perfetto trace of the np=4 no-load run
//        --metrics out.prom write its Prometheus metrics dump
//        --attribution out.json
//                           write the per-job deadline-miss attribution
//                           report of that run (rtseed-attribution-v1)
//                           and print its cause table
//        --json out.json    machine-readable results: one record per
//                           (load, np) cell with full Δm/Δb/Δs/Δe
//                           percentiles (CI archives this as
//                           BENCH_native.json)
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "core/runtime.hpp"
#include "host_info.hpp"
#include "obs/attribution.hpp"
#include "obs/perfetto_export.hpp"
#include "obs/prometheus_export.hpp"
#include "rt/periodic_clock.hpp"

using namespace rtseed;

namespace {

using common::millis;
using common::Nanos;

// Background load threads (best-effort priority; RT threads preempt them).
class BackgroundLoad {
 public:
  enum class Kind { kNone, kCpu, kCpuMemory };

  explicit BackgroundLoad(Kind kind) : kind_(kind) {
    if (kind_ == Kind::kNone) return;
    const int n = rt::rt_capabilities().num_cpus;
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { run(); });
    }
  }

  ~BackgroundLoad() {
    stop_.store(true);
    for (auto& worker : workers_) worker.join();
  }

  static const char* name(Kind kind) {
    switch (kind) {
      case Kind::kNone:
        return "no-load";
      case Kind::kCpu:
        return "cpu-load";
      case Kind::kCpuMemory:
        return "cpu-memory-load";
    }
    return "?";
  }

 private:
  void run() {
    if (kind_ == Kind::kCpu) {
      // Branch-heavy infinite loop (the paper's CPU load).
      volatile long counter = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 4096; ++i) {
          if ((counter & 1) != 0) {
            counter = counter + 3;
          } else {
            counter = counter + 1;
          }
        }
      }
    } else {
      // 512 KB read/write loop (the paper sizes this to the Phi's L2).
      std::vector<char> buffer(512 * 1024);
      volatile char sink = 0;
      size_t i = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        buffer[i] = static_cast<char>(i);
        sink = buffer[(i * 64 + 8192) % buffer.size()];
        i = (i + 64) % buffer.size();
      }
      (void)sink;
    }
  }

  Kind kind_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

core::OverheadSummary run_one(int np, BackgroundLoad::Kind load, int jobs,
                              const std::string& trace_path = "",
                              const std::string& metrics_path = "",
                              const std::string& attribution_path = "") {
  BackgroundLoad background(load);

  core::RuntimeOptions options;
  options.initial_offset = millis(10);
  options.telemetry.enabled = !trace_path.empty() || !metrics_path.empty() ||
                              !attribution_path.empty();
  core::Runtime runtime(options);

  core::TaskConfig tc;
  tc.params.name = "tau1";
  tc.params.period = millis(50);
  tc.params.mandatory = millis(10);
  tc.params.windup = millis(10);
  for (int k = 0; k < np; ++k) tc.params.optional.push_back(millis(50));
  tc.num_jobs = jobs;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken&) {
    volatile double sink = 1.0;
    for (;;) sink = sink * 1.0000001 + 1e-9;  // always overruns (paper §V-A)
  };
  tc.callbacks.windup = [](const core::JobContext&) {};

  if (!runtime.admit(std::move(tc)).is_ok() || !runtime.start().is_ok()) {
    return {};
  }
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  if (options.telemetry.enabled) {
    const auto snapshot = runtime.telemetry_snapshot();
    if (!trace_path.empty() &&
        obs::write_perfetto_trace(trace_path, snapshot).is_ok()) {
      std::printf("[telemetry] %llu events -> %s (ui.perfetto.dev)\n",
                  static_cast<unsigned long long>(snapshot.total_events()),
                  trace_path.c_str());
    }
    if (!metrics_path.empty() &&
        obs::write_prometheus(metrics_path, runtime.telemetry()->metrics())
            .is_ok()) {
      std::printf("[telemetry] metrics -> %s\n", metrics_path.c_str());
    }
    if (!attribution_path.empty()) {
      obs::AttributionOptions aoptions;
      if (fault::Injector* injector = fault::active_injector()) {
        aoptions.fault_fires = injector->fire_log();
      }
      const auto report = obs::attribute_jobs(snapshot, aoptions);
      std::FILE* f = std::fopen(attribution_path.c_str(), "w");
      if (f != nullptr) {
        const std::string json = report.to_json();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("[attribution] %zu jobs -> %s\n", report.jobs.size(),
                    attribution_path.c_str());
      }
      std::printf("%s", report.to_ascii().c_str());
    }
  }
  return report.tasks[0].overheads;
}

void json_summary(std::FILE* f, const char* name,
                  const common::Summary& s) {
  std::fprintf(f,
               "      \"%s_us\": {\"count\": %zu, \"mean\": %.3f, "
               "\"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, "
               "\"max\": %.3f}",
               name, s.count, s.mean, s.p50, s.p90, s.p99, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string json_path;
  std::string attribution_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--attribution") == 0 && i + 1 < argc) {
      attribution_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace out.json] [--metrics out.prom] "
                   "[--attribution out.json] [--json out.json]\n",
                   argv[0]);
      return 2;
    }
  }

  constexpr int kJobs = 30;
  const int np_values[] = {1, 2, 4};
  const BackgroundLoad::Kind loads[] = {BackgroundLoad::Kind::kNone,
                                        BackgroundLoad::Kind::kCpu,
                                        BackgroundLoad::Kind::kCpuMemory};

  std::printf(
      "=== Native overhead measurement (real middleware threads, %s, "
      "%d jobs, T=50ms, m=w=10ms, overrunning optionals) ===\n",
      rt::rt_capabilities().to_string().c_str(), kJobs);
  std::printf("paper analogue: Figs. 10-13 at host scale (np in {1,2,4})\n\n");

  common::Table table({"load", "np", "dm mean[us]", "db mean[us]",
                       "ds mean[us]", "de mean[us]"});
  struct Cell {
    const char* load;
    int np;
    core::OverheadSummary oh;
  };
  std::vector<Cell> cells;
  bool de_grows = true;
  for (auto load : loads) {
    // Compared per cell at the median: one stalled job moves a 30-job
    // mean by milliseconds and would flip the check.
    double prev_de = -1.0;
    for (int np : np_values) {
      // The np=4 no-load run carries the telemetry exports.
      const bool instrumented =
          np == 4 && load == BackgroundLoad::Kind::kNone;
      const auto oh = instrumented
                          ? run_one(np, load, kJobs, trace_path, metrics_path,
                                    attribution_path)
                          : run_one(np, load, kJobs);
      table.add_row({BackgroundLoad::name(load), std::to_string(np),
                     common::format_double(oh.delta_m.mean, 1),
                     common::format_double(oh.delta_b.mean, 1),
                     common::format_double(oh.delta_s.mean, 1),
                     common::format_double(oh.delta_e.mean, 1)});
      cells.push_back({BackgroundLoad::name(load), np, oh});
      if (prev_de >= 0.0 && oh.delta_e.p50 + 1e-9 < prev_de * 0.5) {
        de_grows = false;  // Δe should not collapse as np grows
        std::fprintf(stderr,
                     "[check] %s: de p50 fell from %.1f to %.1f us at "
                     "np=%d\n",
                     BackgroundLoad::name(load), prev_de, oh.delta_e.p50, np);
      }
      prev_de = oh.delta_e.p50;
    }
  }
  table.print();

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 2;
    }
    const auto& caps = rt::rt_capabilities();
    std::fprintf(f,
                 "{\n  \"bench\": \"native_overheads\",\n"
                 "  \"jobs\": %d,\n  \"period_ms\": 50,\n"
                 "  \"wake_backend\": \"%s\",\n"
                 "  \"host\": {%s, \"sched_fifo\": %s, "
                 "\"affinity\": %s},\n  \"runs\": [\n",
                 kJobs,
                 core::wake_backend_name(core::RuntimeOptions{}.wake_backend),
                 rtseed::bench::host_fields().c_str(),
                 caps.sched_fifo ? "true" : "false",
                 caps.affinity ? "true" : "false");
    for (size_t i = 0; i < cells.size(); ++i) {
      std::fprintf(f, "    {\"load\": \"%s\", \"np\": %d,\n",
                   cells[i].load, cells[i].np);
      json_summary(f, "delta_m", cells[i].oh.delta_m);
      std::fprintf(f, ",\n");
      json_summary(f, "delta_b", cells[i].oh.delta_b);
      std::fprintf(f, ",\n");
      json_summary(f, "delta_s", cells[i].oh.delta_s);
      std::fprintf(f, ",\n");
      json_summary(f, "delta_e", cells[i].oh.delta_e);
      std::fprintf(f, "\n    }%s\n", i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[json] results -> %s\n", json_path.c_str());
  }
  std::printf(
      "\n[note] on this host all threads share %d CPU(s); absolute values "
      "are not comparable to the Xeon Phi, but Δe (ending the optional "
      "parts) remains the dominant overhead, as in the paper.\n",
      rt::rt_capabilities().num_cpus);
  return de_grows ? 0 : 1;
}
