// micro_sim_engine: A/B benchmark for the two PR-3 performance layers.
//
//  1. Sweep engine — the Fig. 10 sweep run serial (sweep_threads = 1)
//     vs. on the work pool (sweep_threads = auto), with a bit-exact
//     comparison of the resulting FigureData (the determinism property
//     the per-cell seeding guarantees).
//  2. Simulation core — the legacy O(n)-scan discrete-event engine vs.
//     the event-indexed engine (timer heap + rank bitmaps), on random
//     task sets of growing size, for both the uniprocessor/partitioned
//     and the global scheduler, again with identity checks.
//
// Flags: --json out.json   machine-readable results (CI archives this as
//                          BENCH_sim.json next to BENCH_native.json)
//
// Exit code is nonzero if any identity check fails, so the bench doubles
// as a smoke-level equivalence test on whatever host CI runs it on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "host_info.hpp"
#include "sched/generator.hpp"
#include "sim/experiment.hpp"
#include "sim/global_scheduler.hpp"
#include "sim/sim_scheduler.hpp"
#include "sim/sweep.hpp"

using namespace rtseed;

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Runs fn() `reps` times and returns the fastest wall-clock in ms.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms = elapsed_ms(t0);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// --- order-sensitive fingerprints -----------------------------------------
// splitmix64 chaining over every numeric field: two results hash equal iff
// they are field-for-field identical (up to 64-bit collisions).

common::u64 mix(common::u64 h, common::u64 v) {
  common::u64 state = h ^ (v + 0x9E3779B97F4A7C15ULL);
  return common::splitmix64(state);
}

common::u64 mix_double(common::u64 h, double d) {
  common::u64 bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return mix(h, bits);
}

common::u64 fingerprint(common::u64 h, const sim::SimTaskStats& s) {
  h = mix(h, static_cast<common::u64>(s.released));
  h = mix(h, static_cast<common::u64>(s.completed));
  h = mix(h, static_cast<common::u64>(s.misses));
  h = mix(h, static_cast<common::u64>(s.optional_completed));
  h = mix(h, static_cast<common::u64>(s.optional_terminated));
  h = mix(h, static_cast<common::u64>(s.optional_discarded));
  h = mix(h, static_cast<common::u64>(s.max_response));
  return h;
}

common::u64 fingerprint(const sim::SimResult& r) {
  common::u64 h = 0xF16E59;
  for (const auto& s : r.tasks) h = fingerprint(h, s);
  for (const auto& slice : r.trace) {
    h = mix(h, static_cast<common::u64>(slice.task));
    h = mix(h, static_cast<common::u64>(slice.job));
    h = mix(h, static_cast<common::u64>(slice.part));
    h = mix(h, static_cast<common::u64>(slice.start));
    h = mix(h, static_cast<common::u64>(slice.end));
  }
  for (common::Nanos od : r.optional_deadlines) {
    h = mix(h, static_cast<common::u64>(od));
  }
  return h;
}

common::u64 fingerprint(const sim::GlobalSimResult& r) {
  common::u64 h = 0x610BA1;
  for (const auto& s : r.tasks) h = fingerprint(h, s);
  for (common::Nanos od : r.optional_deadlines) {
    h = mix(h, static_cast<common::u64>(od));
  }
  h = mix(h, static_cast<common::u64>(r.migrations));
  h = mix(h, static_cast<common::u64>(r.preemptions));
  return h;
}

common::u64 fingerprint(const sim::FigureData& fig) {
  common::u64 h = 0xF16;
  h = mix(h, static_cast<common::u64>(fig.kind));
  for (double x : fig.np) h = mix_double(h, x);
  for (const auto& subplot : fig.subplots) {
    h = mix(h, static_cast<common::u64>(subplot.load));
    for (const auto& series : subplot.series) {
      for (double y : series.y) h = mix_double(h, y);
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
      return 2;
    }
  }

  const unsigned host_threads = std::max(1u, std::thread::hardware_concurrency());
  const int sweep_threads = sim::SweepRunner().threads();
  std::printf(
      "=== micro_sim_engine: sweep pool + event-indexed core A/B ===\n"
      "host threads: %u, sweep pool degree: %d\n\n",
      host_threads, sweep_threads);

  bool all_identical = true;

  // ---- 1. Fig. 10 sweep: serial vs. work pool ---------------------------
  sim::FigureConfig fig;
  fig.kind = sim::OverheadKind::kBeginMandatory;

  sim::FigureData serial_fig, parallel_fig;
  fig.sweep_threads = 1;
  const double sweep_serial_ms = best_of(3, [&] { serial_fig = run_figure(fig); });
  fig.sweep_threads = 0;  // resolve from env / hardware
  const double sweep_parallel_ms =
      best_of(3, [&] { parallel_fig = run_figure(fig); });
  const bool sweep_identical =
      fingerprint(serial_fig) == fingerprint(parallel_fig);
  all_identical &= sweep_identical;
  const double sweep_speedup = sweep_serial_ms / sweep_parallel_ms;
  std::printf(
      "[sweep]  fig10 serial %.1f ms | %d threads %.1f ms | speedup %.2fx | "
      "%s\n\n",
      sweep_serial_ms, sweep_threads, sweep_parallel_ms, sweep_speedup,
      sweep_identical ? "bit-identical" : "MISMATCH");

  // ---- 2. DES core: legacy scans vs. event index ------------------------
  struct DesRow {
    const char* sim;
    int tasks;
    double legacy_ms = 0;
    double indexed_ms = 0;
    double speedup = 0;
    bool identical = false;
  };
  std::vector<DesRow> des;
  const common::Nanos horizon = common::millis(1000);

  for (int n : {12, 48, 96}) {
    common::Rng rng(sim::SweepRunner::cell_seed(424242,
                                                {static_cast<common::u64>(n)}));
    sched::GeneratorConfig gen;
    gen.num_tasks = n;
    gen.total_utilization = 0.85;
    gen.min_period = common::millis(1);
    gen.max_period = common::millis(50);
    gen.optional_parts = 2;
    const auto set = sched::generate_task_set(gen, rng);

    sim::SimOptions opt;
    opt.algorithm = sim::SimAlgorithm::kRmwp;
    opt.horizon = horizon;

    DesRow row{"uniprocessor", n};
    common::u64 legacy_fp = 0, indexed_fp = 0;
    opt.engine = sim::SimEngine::kLegacy;
    row.legacy_ms = best_of(3, [&] {
      legacy_fp = fingerprint(sim::simulate_uniprocessor(set, opt));
    });
    opt.engine = sim::SimEngine::kIndexed;
    row.indexed_ms = best_of(3, [&] {
      indexed_fp = fingerprint(sim::simulate_uniprocessor(set, opt));
    });
    row.speedup = row.legacy_ms / row.indexed_ms;
    row.identical = legacy_fp == indexed_fp;
    all_identical &= row.identical;
    des.push_back(row);

    // Global: same n spread over M=4 processors at a feasible load.
    common::Rng grng(sim::SweepRunner::cell_seed(
        555, {static_cast<common::u64>(n)}));
    gen.total_utilization = 0.7 * 4;
    const auto gset = sched::generate_task_set(gen, grng);

    sim::GlobalSimOptions gopt;
    gopt.algorithm = sim::SimAlgorithm::kRmwp;
    gopt.num_processors = 4;
    gopt.horizon = horizon;

    DesRow grow{"global", n};
    gopt.engine = sim::SimEngine::kLegacy;
    grow.legacy_ms = best_of(3, [&] {
      legacy_fp = fingerprint(sim::simulate_global(gset, gopt));
    });
    gopt.engine = sim::SimEngine::kIndexed;
    grow.indexed_ms = best_of(3, [&] {
      indexed_fp = fingerprint(sim::simulate_global(gset, gopt));
    });
    grow.speedup = grow.legacy_ms / grow.indexed_ms;
    grow.identical = legacy_fp == indexed_fp;
    all_identical &= grow.identical;
    des.push_back(grow);
  }

  for (const auto& row : des) {
    std::printf(
        "[des]    %-13s n=%-3d legacy %8.2f ms | indexed %8.2f ms | "
        "speedup %5.2fx | %s\n",
        row.sim, row.tasks, row.legacy_ms, row.indexed_ms, row.speedup,
        row.identical ? "identical" : "MISMATCH");
  }

  double des_speedup_max = 0;
  for (const auto& row : des) des_speedup_max = std::max(des_speedup_max, row.speedup);
  std::printf(
      "\nheadline: fig10 sweep %.2fx (parallel), DES core up to %.2fx "
      "(indexed)\n",
      sweep_speedup, des_speedup_max);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_sim_engine\",\n"
                 "  \"host\": {%s},\n"
                 "  \"host_threads\": %u,\n"
                 "  \"sweep_threads\": %d,\n"
                 "  \"sweep\": {\"figure\": \"fig10\", \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"speedup\": %.3f, "
                 "\"identical\": %s},\n"
                 "  \"des\": [\n",
                 rtseed::bench::host_fields().c_str(), host_threads,
                 sweep_threads, sweep_serial_ms,
                 sweep_parallel_ms, sweep_speedup,
                 sweep_identical ? "true" : "false");
    for (size_t i = 0; i < des.size(); ++i) {
      const auto& row = des[i];
      std::fprintf(f,
                   "    {\"sim\": \"%s\", \"tasks\": %d, \"legacy_ms\": %.3f, "
                   "\"indexed_ms\": %.3f, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   row.sim, row.tasks, row.legacy_ms, row.indexed_ms,
                   row.speedup, row.identical ? "true" : "false",
                   i + 1 < des.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"all_identical\": %s\n"
                 "}\n",
                 all_identical ? "true" : "false");
    std::fclose(f);
    std::printf("[json] results -> %s\n", json_path.c_str());
  }

  std::printf("[identity check] %s\n",
              all_identical
                  ? "all engine/thread configurations agree bit-for-bit"
                  : "FAILED: a configuration produced different numbers");
  return all_identical ? 0 : 1;
}
