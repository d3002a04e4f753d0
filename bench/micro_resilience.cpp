// Micro-benchmark of the fault-resilience layer: what detection and
// recovery COST, so the "resilience is nearly free on the hot path" claim
// in DESIGN.md §9 is a measured number, not an assertion.
//
//   [gate]     fault::try_fire with no injector installed (the cost every
//              hot-path injection point pays in production), and with an
//              installed-but-zero-rate injector.
//   [watchdog] BudgetWatchdog arm+disarm per job part (two timer_settime).
//   [breaker]  CircuitBreaker::record_job on the mandatory thread.
//   [lostwake] end-to-end recovery latency of a swallowed worker wake:
//              windup_start - optional_deadline for jobs whose only wake
//              was injected away (bounded by completion_margin + slice).
//   [stall]    supervisor detection latency for a worker already stalled
//              past deadline + grace.
//
// Flags: --json out.json   machine-readable results (CI archives this as
//                          BENCH_resilience.json)
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/imprecise_task.hpp"
#include "fault/breaker.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "fault/watchdog.hpp"
#include "host_info.hpp"
#include "rt/periodic_clock.hpp"

namespace {

using rtseed::common::millis;
using rtseed::common::monotonic_now;
using rtseed::common::Nanos;
namespace fault = rtseed::fault;
namespace core = rtseed::core;
namespace rt = rtseed::rt;

double ns_per_op(Nanos elapsed, long ops) {
  return static_cast<double>(elapsed) / static_cast<double>(ops);
}

double bench_gate_cold() {
  constexpr long kOps = 2'000'000;
  std::atomic<long> sink{0};
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) {
    if (fault::try_fire(fault::InjectPoint::kLostWake)) {
      sink.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ns_per_op(monotonic_now() - start, kOps);
}

double bench_gate_installed() {
  fault::ScopedInjector scoped{fault::InjectorConfig{}};  // all rates 0
  constexpr long kOps = 2'000'000;
  std::atomic<long> sink{0};
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) {
    if (fault::try_fire(fault::InjectPoint::kLostWake)) {
      sink.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ns_per_op(monotonic_now() - start, kOps);
}

double bench_watchdog_cycle() {
  fault::BudgetWatchdog watchdog;
  if (!watchdog.init().is_ok()) return -1.0;
  constexpr long kOps = 20'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) {
    watchdog.arm(start + rtseed::common::seconds(30));
    (void)watchdog.disarm();
  }
  return ns_per_op(monotonic_now() - start, kOps);
}

double bench_breaker_record() {
  fault::BreakerConfig config;
  config.enabled = true;
  fault::CircuitBreaker breaker(config);
  constexpr long kOps = 2'000'000;
  const Nanos start = monotonic_now();
  for (long n = 0; n < kOps; ++n) {
    (void)breaker.record_job((n & 7) != 0, start + n);
  }
  return ns_per_op(monotonic_now() - start, kOps);
}

// Mean wind-up lateness past OD for jobs whose worker wake was swallowed.
double bench_lost_wake_recovery_ms() {
  fault::InjectorConfig config;
  config.with_rate(fault::InjectPoint::kLostWake, 1.0);
  config.max_fires_per_point = 4;
  fault::ScopedInjector scoped(config);

  core::TaskConfig tc;
  tc.params.name = "bench-lw";
  tc.params.period = millis(120);
  tc.params.mandatory = millis(1);
  tc.params.windup = millis(1);
  tc.params.optional = {millis(1)};
  tc.num_jobs = 4;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken& token) {
    (void)token.should_stop();
  };
  tc.callbacks.windup = [](const core::JobContext&) {};

  core::TaskPlacement placement;
  placement.processor = 0;
  placement.optional_deadline_offset = millis(20);
  core::TaskRuntimeOptions options;
  options.termination = core::TerminationStrategy::kPeriodicCheck;
  options.initial_offset = millis(5);
  options.completion_margin = millis(10);

  rtseed::common::Topology topology = rtseed::common::Topology::native();
  core::ImpreciseTask task(0, std::move(tc), placement, options, topology);
  if (!task.start().is_ok()) return -1.0;
  task.wait_finished();
  task.stop();

  double total_ms = 0;
  long stranded = 0;
  for (const auto& rec : task.drain_records()) {
    if (rec.windup_start > rec.optional_deadline) {
      total_ms += rtseed::common::to_millis(rec.windup_start -
                                            rec.optional_deadline);
      ++stranded;
    }
  }
  return stranded > 0 ? total_ms / static_cast<double>(stranded) : 0.0;
}

// Supervisor detection latency: a fake pool reports a worker stalled far
// past its deadline; measure start() -> force_worker().
class StalledPool final : public fault::SupervisedPool {
 public:
  int worker_count() const override { return 1; }
  fault::WorkerHealth worker_health(int) const override {
    fault::WorkerHealth h;
    h.alive = true;
    h.busy = true;
    h.busy_since = busy_since_;
    h.busy_deadline = busy_deadline_;
    return h;
  }
  void force_worker(int) override {
    Nanos expected = 0;
    forced_at_.compare_exchange_strong(expected, monotonic_now());
  }
  bool kill_worker(int) override { return false; }
  bool respawn_worker(int) override { return false; }

  Nanos busy_since_ = 0;
  Nanos busy_deadline_ = 0;
  std::atomic<Nanos> forced_at_{0};
};

double bench_stall_detection_ms() {
  StalledPool pool;
  pool.busy_since_ = monotonic_now() - millis(100);
  pool.busy_deadline_ = monotonic_now() - millis(90);

  fault::SupervisorConfig config;
  config.enabled = true;
  config.poll_interval = millis(1);
  config.stall_grace = 0;
  fault::Supervisor supervisor(config);
  supervisor.watch(&pool, 0, "bench");

  const Nanos start = monotonic_now();
  if (!supervisor.start().is_ok()) return -1.0;
  while (pool.forced_at_.load() == 0 &&
         monotonic_now() - start < rtseed::common::seconds(2)) {
    rt::sleep_for(millis(1));
  }
  supervisor.stop();
  const Nanos forced = pool.forced_at_.load();
  return forced > 0 ? rtseed::common::to_millis(forced - start) : -1.0;
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

  std::printf("=== micro_resilience: cost of detection and recovery ===\n\n");

  const double gate_cold = bench_gate_cold();
  const double gate_installed = bench_gate_installed();
  std::printf("[gate]     try_fire, no injector:        %7.2f ns/op\n",
              gate_cold);
  std::printf("[gate]     try_fire, zero-rate injector: %7.2f ns/op\n",
              gate_installed);

  const double watchdog = bench_watchdog_cycle();
  std::printf("[watchdog] arm + disarm:                 %7.1f ns/cycle\n",
              watchdog);

  const double breaker = bench_breaker_record();
  std::printf("[breaker]  record_job:                   %7.2f ns/op\n",
              breaker);

  const double lost_wake = bench_lost_wake_recovery_ms();
  std::printf("[lostwake] recovery past OD:             %7.2f ms/job\n",
              lost_wake);

  const double stall = bench_stall_detection_ms();
  std::printf("[stall]    supervisor detection:         %7.2f ms\n", stall);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"micro_resilience\",\n"
                 "  \"host\": {%s},\n"
                 "  \"gate_cold_ns\": %.3f,\n"
                 "  \"gate_installed_ns\": %.3f,\n"
                 "  \"watchdog_cycle_ns\": %.1f,\n"
                 "  \"breaker_record_ns\": %.3f,\n"
                 "  \"lost_wake_recovery_ms\": %.3f,\n"
                 "  \"stall_detection_ms\": %.3f\n"
                 "}\n",
                 rtseed::bench::host_fields().c_str(), gate_cold,
                 gate_installed, watchdog, breaker, lost_wake, stall);
    std::fclose(f);
    std::printf("\n[json] results -> %s\n", json_path.c_str());
  }
  return 0;
}
