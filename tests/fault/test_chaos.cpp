// Chaos suite: seed-driven fault injection against the real thread
// protocol, asserting that every injected fault is DETECTED (counted,
// traced) and RECOVERED (all jobs still finish).  Periods are generous —
// the host is shared and may have a single hardware thread.
//
// FaultTsan* tests use the periodic-check termination strategy (no
// siglongjmp, no throwing handlers) so the whole suite is ThreadSanitizer
// clean on both wake backends.  The ChaosSigjmp suite at the bottom needs
// the signal-jump machinery and is excluded from the tsan run.
#include <gtest/gtest.h>

#include <atomic>

#include "core/imprecise_task.hpp"
#include "core/runtime.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::fault {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

struct ChaosFixture {
  std::atomic<long> optional_runs{0};
  std::atomic<long> windup_runs{0};
  common::Topology topology = common::Topology::native();

  core::TaskConfig config(int np, long jobs, Nanos period = millis(150)) {
    core::TaskConfig tc;
    tc.params.name = "chaos";
    tc.params.period = period;
    tc.params.mandatory = millis(1);
    tc.params.windup = millis(1);
    for (int k = 0; k < np; ++k) tc.params.optional.push_back(millis(1));
    tc.num_jobs = jobs;
    tc.callbacks.mandatory = [](const core::JobContext&) {};
    // Polling body (periodic-check compatible): returns promptly, bails
    // out immediately when released past its deadline.
    tc.callbacks.optional = [this](const core::JobContext&, int,
                                   core::StopToken& token) {
      ++optional_runs;
      (void)token.should_stop();
    };
    tc.callbacks.windup = [this](const core::JobContext&) { ++windup_runs; };
    return tc;
  }

  core::TaskPlacement placement(Nanos od_offset) {
    core::TaskPlacement p;
    p.processor = 0;
    p.mandatory_priority = rt::rt_capabilities().sched_fifo ? 80 : 0;
    p.optional_priority = rt::rt_capabilities().sched_fifo ? 31 : 0;
    p.optional_deadline_offset = od_offset;
    return p;
  }

  core::TaskRuntimeOptions options(core::WakeBackend backend) {
    core::TaskRuntimeOptions o;
    o.termination = core::TerminationStrategy::kPeriodicCheck;
    o.initial_offset = millis(5);
    o.completion_margin = millis(20);
    o.wake_backend = backend;
    return o;
  }
};

// A wake swallowed exactly when the worker commits to sleeping strands it;
// the caller's bounded-slice recovery loop must re-wake it and the job
// must still finish.  Deterministic: rate 1.0 fires on the first parked
// wakes, capped at 3.
void run_lost_wake(core::WakeBackend backend) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kLostWake, 1.0);
  config.max_fires_per_point = 3;
  ScopedInjector scoped(config);

  ChaosFixture fx;
  core::ImpreciseTask task(0, fx.config(2, 4), fx.placement(millis(30)),
                           fx.options(backend), fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();

  EXPECT_EQ(fx.windup_runs.load(), 4);  // every job finished its wind-up
  EXPECT_GE(task.pool()->wake_retries(), 1L);  // recovery path exercised
  // The futex path only swallows wakes of genuinely PARKED workers, so on
  // hosts where a worker is caught mid-spin fewer than the cap may fire.
  EXPECT_GE(scoped.injector().injected(InjectPoint::kLostWake), 1u);
}

TEST(FaultTsanChaos, LostWakeRecoveredFutex) {
  run_lost_wake(core::WakeBackend::kFutexBatch);
}

TEST(FaultTsanChaos, LostWakeRecoveredCondvar) {
  run_lost_wake(core::WakeBackend::kCondvar);
}

// A worker that dies with its command unconsumed must be respawned by the
// supervisor, and the respawned worker must pick the part right up.
void run_worker_death(core::WakeBackend backend) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kWorkerDeath, 1.0);
  config.max_fires_per_point = 1;
  ScopedInjector scoped(config);

  ChaosFixture fx;
  SupervisorConfig sup_config;
  sup_config.enabled = true;
  sup_config.poll_interval = millis(2);
  Supervisor supervisor(sup_config);

  core::ImpreciseTask task(0, fx.config(2, 4), fx.placement(millis(30)),
                           fx.options(backend), fx.topology);
  supervisor.watch(task.pool(), 0, "chaos");
  ASSERT_TRUE(task.start().is_ok());
  ASSERT_TRUE(supervisor.start().is_ok());
  task.wait_finished();
  supervisor.stop();  // always before the pool it watches
  task.stop();

  EXPECT_EQ(fx.windup_runs.load(), 4);
  EXPECT_GE(supervisor.stats().respawned, 1u);
  EXPECT_EQ(scoped.injector().injected(InjectPoint::kWorkerDeath), 1u);
}

TEST(FaultTsanChaos, WorkerDeathRespawnedFutex) {
  run_worker_death(core::WakeBackend::kFutexBatch);
}

TEST(FaultTsanChaos, WorkerDeathRespawnedCondvar) {
  run_worker_death(core::WakeBackend::kCondvar);
}

// A worker stalling past the optional deadline (page-fault storm shape) is
// detected by the supervisor; the job still finishes once the stall ends.
TEST(FaultTsanChaos, WorkerStallDetected) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kWorkerStall, 1.0);
  config.max_fires_per_point = 2;
  config.stall_ns = millis(60);  // well past OD 20 ms + grace
  ScopedInjector scoped(config);

  ChaosFixture fx;
  SupervisorConfig sup_config;
  sup_config.enabled = true;
  sup_config.poll_interval = millis(2);
  sup_config.stall_grace = millis(5);
  sup_config.kill_grace = millis(5);
  Supervisor supervisor(sup_config);

  core::ImpreciseTask task(0, fx.config(1, 3), fx.placement(millis(20)),
                           fx.options(core::WakeBackend::kFutexBatch),
                           fx.topology);
  supervisor.watch(task.pool(), 0, "staller");
  ASSERT_TRUE(task.start().is_ok());
  ASSERT_TRUE(supervisor.start().is_ok());
  task.wait_finished();
  supervisor.stop();
  task.stop();

  EXPECT_EQ(fx.windup_runs.load(), 3);
  EXPECT_GE(supervisor.stats().stalls_detected, 1u);
}

// A background EINTR storm through every blocking primitive must be
// invisible to the protocol: all jobs finish, nothing stalls.
TEST(FaultTsanChaos, EintrStormHarmless) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kEintrStorm, 0.3);
  ScopedInjector scoped(config);

  ChaosFixture fx;
  core::ImpreciseTask task(0, fx.config(2, 4, millis(100)),
                           fx.placement(millis(30)),
                           fx.options(core::WakeBackend::kFutexBatch),
                           fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(fx.windup_runs.load(), 4);
  EXPECT_GT(scoped.injector().evaluated(InjectPoint::kEintrStorm), 0u);
}

// Everything at once, through the Runtime facade with supervisor,
// watchdog and breaker all enabled: for any fixed seed the run must
// complete every job.  The exact faults differ per seed (that is the
// point); the invariant is recovery.
void run_full_chaos(common::u64 seed, core::WakeBackend backend) {
  InjectorConfig config = InjectorConfig::chaos(seed, 0.05);
  config.max_fires_per_point = 2;
  ScopedInjector scoped(config);

  std::atomic<long> windups{0};
  core::RuntimeOptions options;
  options.initial_offset = millis(5);
  options.termination = core::TerminationStrategy::kPeriodicCheck;
  options.completion_margin = millis(20);
  options.wake_backend = backend;
  options.supervisor.enabled = true;
  options.supervisor.poll_interval = millis(2);
  options.watchdog.enabled = true;
  options.breaker.enabled = true;
  core::Runtime runtime(options);

  core::TaskConfig tc;
  tc.params.name = "storm";
  tc.params.period = millis(120);
  tc.params.mandatory = millis(2);
  tc.params.windup = millis(2);
  tc.params.optional = {millis(1), millis(1)};
  tc.num_jobs = 6;
  tc.callbacks.mandatory = [](const core::JobContext&) {};
  tc.callbacks.optional = [](const core::JobContext&, int,
                             core::StopToken& token) {
    (void)token.should_stop();
  };
  tc.callbacks.windup = [&windups](const core::JobContext&) { ++windups; };
  ASSERT_TRUE(runtime.admit(std::move(tc)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();

  EXPECT_EQ(windups.load(), 6) << "seed " << seed;
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_EQ(report.tasks[0].qos.jobs, 6);
}

TEST(FaultTsanChaos, FullChaosPresetSeed1Futex) {
  run_full_chaos(1, core::WakeBackend::kFutexBatch);
}

TEST(FaultTsanChaos, FullChaosPresetSeed42Futex) {
  run_full_chaos(42, core::WakeBackend::kFutexBatch);
}

TEST(FaultTsanChaos, FullChaosPresetSeed42Condvar) {
  run_full_chaos(42, core::WakeBackend::kCondvar);
}

#if !defined(RTSEED_TSAN)
// ---- Signal-jump chaos (excluded from the tsan run) --------------------

// The OD timer silently fails to arm under kSigjmp (t_armed stays set, so
// the handler still accepts the signal).  The body polls nothing; only the
// supervisor's stage-2 kill can terminate it.  This is the deepest
// recovery path in the system.
TEST(ChaosSigjmp, TimerMisfireRecoveredBySupervisorKill) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kTimerMisfire, 1.0);
  config.max_fires_per_point = 2;
  ScopedInjector scoped(config);

  ChaosFixture fx;
  auto tc = fx.config(1, 2, millis(250));
  // Pure CPU loop: cannot be stopped by polling or force flags.
  tc.callbacks.optional = [&fx](const core::JobContext&, int,
                                core::StopToken&) {
    ++fx.optional_runs;
    volatile double sink = 1.0;
    for (;;) sink = sink * 1.0000001 + 1e-9;
  };

  SupervisorConfig sup_config;
  sup_config.enabled = true;
  sup_config.poll_interval = millis(2);
  sup_config.stall_grace = millis(10);
  sup_config.kill_grace = millis(10);
  Supervisor supervisor(sup_config);

  auto options = fx.options(core::WakeBackend::kFutexBatch);
  options.termination = core::TerminationStrategy::kSigjmp;
  core::ImpreciseTask task(0, std::move(tc), fx.placement(millis(25)),
                           options, fx.topology);
  supervisor.watch(task.pool(), 0, "misfire");
  ASSERT_TRUE(task.start().is_ok());
  ASSERT_TRUE(supervisor.start().is_ok());
  task.wait_finished();
  supervisor.stop();
  task.stop();

  EXPECT_EQ(fx.windup_runs.load(), 2);
  EXPECT_GE(supervisor.stats().killed, 1u);
  // 1 or 2: a FIFO-spinning worker on a single-CPU host starves the CFS
  // supervisor until the RT-throttle window, so the stage-2 kill can land
  // after job 1's OD — job 1 then releases late and its optionals are
  // discarded (never reaching the arm site) rather than re-injected.
  EXPECT_GE(scoped.injector().injected(InjectPoint::kTimerMisfire), 1u);
}
#endif  // !RTSEED_TSAN

}  // namespace
}  // namespace rtseed::fault
