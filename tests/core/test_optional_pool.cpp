// Direct tests of the shared OptionalPool (the Fig. 6/7 protocol engine
// behind both ImpreciseTask and MultiPhaseTask) and of its spin rule.
#include "core/optional_pool.hpp"

#include <sched.h>

#include "common/topology.hpp"
#include "core/assignment.hpp"
#include "core/multi_phase_task.hpp"
#include "core/spin_rule.hpp"
#include "rt/periodic_clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <vector>

namespace rtseed::core {
namespace {

using common::micros;
using common::millis;
using common::monotonic_now;
using common::Nanos;

OptionalPool::Options pool_options(int parts) {
  OptionalPool::Options options;
  options.fifo_priority = rt::rt_capabilities().sched_fifo ? 40 : 0;
  const auto topology = common::Topology::native();
  options.cpus = assign_optional_parts(topology, AssignmentPolicy::kOneByOne,
                                       parts);
  options.name_prefix = "pool";
  return options;
}

JobContext job_with_od(Nanos od_from_now) {
  JobContext ctx;
  ctx.release = monotonic_now();
  ctx.optional_deadline = ctx.release + od_from_now;
  ctx.deadline = ctx.release + od_from_now * 2;
  return ctx;
}

TEST(OptionalPool, RunsAllRequestedParts) {
  std::atomic<int> runs{0};
  OptionalPool pool(pool_options(3),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(100)), 3);
  pool.shutdown();
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(round.completed, 3);
  EXPECT_EQ(round.terminated, 0);
}

TEST(OptionalPool, CountIsClampedToPoolSize) {
  std::atomic<int> runs{0};
  OptionalPool pool(pool_options(2),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(100)), 10);
  pool.shutdown();
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(round.completed, 2);
}

TEST(OptionalPool, ZeroCountIsNoOp) {
  OptionalPool pool(pool_options(2), [](const JobContext&, int, StopToken&) {
    FAIL() << "no part should run";
  });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(50)), 0);
  pool.shutdown();
  EXPECT_EQ(round.completed + round.terminated, 0);
}

TEST(OptionalPool, PartialRoundSignalsOnlyRequestedParts) {
  std::atomic<int> max_part{-1};
  OptionalPool pool(pool_options(4),
                    [&](const JobContext&, int part, StopToken&) {
                      int seen = max_part.load();
                      while (part > seen &&
                             !max_part.compare_exchange_weak(seen, part)) {
                      }
                    });
  ASSERT_TRUE(pool.start().is_ok());
  (void)pool.run_round(job_with_od(millis(100)), 2);
  pool.shutdown();
  EXPECT_LE(max_part.load(), 1);  // parts 2,3 never signalled
}

#if !defined(RTSEED_TSAN)
// Only a signal jump can stop this pure CPU loop, and tsan cannot model
// siglongjmp out of a handler: excluded from the tsan run.
TEST(OptionalPool, OverrunningPartsTerminatedAtOd) {
  OptionalPool pool(pool_options(2),
                    [](const JobContext&, int, StopToken&) {
                      volatile double sink = 1.0;
                      for (;;) sink = sink * 1.0000001 + 1e-9;
                    });
  ASSERT_TRUE(pool.start().is_ok());
  const Nanos before = monotonic_now();
  const auto round = pool.run_round(job_with_od(millis(20)), 2);
  pool.shutdown();
  EXPECT_EQ(round.terminated, 2);
  EXPECT_EQ(round.completed, 0);
  EXPECT_GE(round.all_ended - before, millis(19));
  EXPECT_LT(round.all_ended - before, millis(80));
}
#endif  // !RTSEED_TSAN

TEST(OptionalPool, SignalTimestampsOrdered) {
  OptionalPool pool(pool_options(2),
                    [](const JobContext&, int, StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(50)), 2);
  pool.shutdown();
  EXPECT_LE(round.signal_start, round.signal_end);
  EXPECT_GT(round.first_part_start, 0);
  EXPECT_LE(round.signal_start, round.all_ended);
}

TEST(OptionalPool, ReusableAcrossManyRounds) {
  std::atomic<int> runs{0};
  OptionalPool pool(pool_options(2),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  for (int round = 0; round < 10; ++round) {
    const auto result = pool.run_round(job_with_od(millis(50)), 2);
    EXPECT_EQ(result.completed, 2) << "round " << round;
  }
  pool.shutdown();
  EXPECT_EQ(runs.load(), 20);
}

TEST(OptionalPool, ShutdownIsIdempotentAndStartOnce) {
  OptionalPool pool(pool_options(1), [](const JobContext&, int, StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());
  EXPECT_FALSE(pool.start().is_ok());  // double start rejected
  pool.shutdown();
  pool.shutdown();  // no-op
}

TEST(OptionalPool, BodyExceptionCountedAndRoundCompletes) {
  OptionalPool pool(pool_options(2),
                    [](const JobContext&, int part, StopToken&) {
                      if (part == 1) throw std::runtime_error("part fail");
                    });
  ASSERT_TRUE(pool.start().is_ok());
  const auto round = pool.run_round(job_with_od(millis(50)), 2);
  pool.shutdown();
  EXPECT_EQ(round.completed + round.terminated, 2);  // round not wedged
  EXPECT_EQ(pool.body_errors(), 1);
}

TEST(OptionalPool, CpuAccessorMatchesAssignment) {
  const auto topology = common::Topology::native();
  OptionalPool pool(pool_options(3), [](const JobContext&, int, StopToken&) {});
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(pool.cpu(k),
              assign_cpu(topology, AssignmentPolicy::kOneByOne, k));
  }
  EXPECT_EQ(pool.size(), 3);
}

// ---- spin rule (pure) ------------------------------------------------------

TEST(SpinRule, NoSpinWhileAPartSharesTheCallersCpu) {
  EXPECT_EQ(spin_rule::completion_spin(4, /*part_on_caller_cpu=*/true), 0);
  EXPECT_EQ(spin_rule::completion_spin(4, false), spin_rule::kCompletionSpin);
  EXPECT_EQ(spin_rule::worker_spin(4, /*shares_signaller_cpu=*/true, 0), 0);
  EXPECT_EQ(spin_rule::worker_spin(4, false, 0), spin_rule::kWorkerSpin);
}

TEST(SpinRule, NoSpinOnOneCpu) {
  EXPECT_EQ(spin_rule::completion_spin(1, false), 0);
  EXPECT_EQ(spin_rule::worker_spin(1, false, 0), 0);
  EXPECT_EQ(spin_rule::spin_budget(micros(50), 1, false), 0);
  EXPECT_EQ(spin_rule::spin_budget(micros(50), 2, false), micros(50));
}

TEST(SpinRule, WorkerStopsAfterLongGapAndResumesAfterShortGap) {
  const Nanos period_gap = millis(1);  // a periodic task's next job
  const Nanos back_to_back_gap = micros(5);  // the next phase of a job
  EXPECT_EQ(spin_rule::worker_spin(4, false, back_to_back_gap),
            spin_rule::kWorkerSpin);
  EXPECT_EQ(spin_rule::worker_spin(4, false, period_gap), 0);
  EXPECT_EQ(spin_rule::worker_spin(4, false, back_to_back_gap),
            spin_rule::kWorkerSpin);
  // The boundary: a command that arrived exactly at the budget's end would
  // have been caught by the spin.
  EXPECT_EQ(spin_rule::worker_spin(4, false, spin_rule::kWorkerSpin),
            spin_rule::kWorkerSpin);
  EXPECT_EQ(spin_rule::worker_spin(4, false, spin_rule::kWorkerSpin + 1), 0);
  // A command published before the worker began waiting.
  EXPECT_EQ(spin_rule::worker_spin(4, false, -micros(3)),
            spin_rule::kWorkerSpin);
}

TEST(SpinRule, ReleaseLeadIsZeroOnOneCpu) {
  EXPECT_EQ(spin_rule::release_lead(1), 0);
  EXPECT_EQ(spin_rule::release_lead(4), spin_rule::kReleaseLead);
  const Nanos predicted = millis(5);
  EXPECT_EQ(spin_rule::worker_wake_at(1, false, predicted), 0);
  EXPECT_EQ(spin_rule::worker_wake_at(4, /*shares_signaller_cpu=*/true,
                                      predicted),
            0);
  EXPECT_EQ(spin_rule::worker_wake_at(4, false, /*no prediction*/ 0), 0);
  EXPECT_EQ(spin_rule::worker_wake_at(4, false, predicted),
            predicted - spin_rule::kReleaseLead);
  EXPECT_EQ(spin_rule::kPrewakeSpin, 2 * spin_rule::kReleaseLead);
}

TEST(SpinRule, SpinIsBoundedByTimeNotIterations) {
  int polls = 0;
  EXPECT_FALSE(spin_rule::spin_until(0, [&] { return ++polls, false; }));
  EXPECT_EQ(polls, 1);  // no budget: one look, no PAUSE
  const Nanos budget = micros(200);
  const Nanos before = monotonic_now();
  EXPECT_FALSE(spin_rule::spin_until(budget, [] { return false; }));
  const Nanos spun = monotonic_now() - before;
  EXPECT_GE(spun, budget);
  EXPECT_LT(spun, millis(500));  // generous: a preempted spinner overshoots
  polls = 0;
  EXPECT_TRUE(spin_rule::spin_until(millis(500), [&] { return ++polls == 3; }));
  EXPECT_EQ(polls, 3);
}

// ---- spin rule in the pool -------------------------------------------------

// The paper's kOneByOne placement puts part 0 on the mandatory thread's
// CPU.  A caller pinned there at a higher FIFO priority (the mandatory
// thread's shape) must park, not spin, or part 0 cannot run; every round,
// back-to-back or spaced like a periodic job, must complete.  With np = 3
// the other parts run elsewhere, so part 0's end also hands the caller
// back its CPU to spin for them.
TEST(OptionalPool, CallerOnPartZeroCpuCompletesEveryRound) {
  for (const int np : {1, 3}) {
    auto options = pool_options(np);
    const common::CpuId shared = options.cpus[0];
    std::atomic<int> runs{0};
    OptionalPool pool(std::move(options),
                      [&](const JobContext&, int, StopToken&) { ++runs; });
    ASSERT_TRUE(pool.start().is_ok());
    constexpr int kRounds = 200;
    int completed = 0;
    int terminated = 0;
    int on_shared_cpu = 0;
    rt::ThreadConfig tc;
    tc.name = "pool.m";
    tc.fifo_priority = rt::rt_capabilities().sched_fifo ? 60 : 0;
    tc.affinity = rt::CpuSet::single(shared);
    rt::RtThread caller(tc, [&] {
      for (int r = 0; r < kRounds; ++r) {
        on_shared_cpu += sched_getcpu() == shared ? 1 : 0;
        const auto round = pool.run_round(job_with_od(millis(50)), np);
        completed += round.completed;
        terminated += round.terminated;
        // Every other round leaves a periodic-job gap, so the worker's
        // self-tuned spin is exercised in both directions.
        if (r % 2 == 1) rt::sleep_for(micros(300));
      }
    });
    caller.join();
    pool.shutdown();
    EXPECT_EQ(completed, kRounds * np) << "np=" << np;
    EXPECT_EQ(terminated, 0) << "np=" << np;
    EXPECT_EQ(runs.load(), kRounds * np) << "np=" << np;
    if (caller.config_status().is_ok()) {
      EXPECT_EQ(on_shared_cpu, kRounds) << "np=" << np;
    }
  }
}

// The local-part handback wakes a parked caller to spin for the remote
// parts.  That wake must withdraw the caller's waiter bit: otherwise the
// last remote part, ending during the spin, issues a FUTEX_WAKE that no
// one sleeps in — a third wake per round on top of the batched fan-out
// and the handback.
TEST(OptionalPool, HandbackSpinCostsNoThirdWake) {
  constexpr int kNp = 3;
  if (!rt::rt_capabilities().sched_fifo ||
      rt::rt_capabilities().num_cpus < kNp) {
    GTEST_SKIP() << "needs SCHED_FIFO and " << kNp << " CPUs";
  }
  auto options = pool_options(kNp);
  const common::CpuId shared = options.cpus[0];
  OptionalPool pool(std::move(options),
                    [](const JobContext&, int part, StopToken&) {
                      // Remote parts outlast part 0 by a little, so they
                      // end inside the caller's post-handback spin.
                      if (part == 0) return;
                      const Nanos end = monotonic_now() + micros(5);
                      while (monotonic_now() < end) {
                      }
                    });
  ASSERT_TRUE(pool.start().is_ok());
  constexpr int kWarmup = 20;
  constexpr int kRounds = 200;
  int completed = 0;
  rt::WakeStats before;
  rt::WakeStats after;
  rt::ThreadConfig tc;
  tc.name = "pool.m";
  tc.fifo_priority = 60;
  tc.affinity = rt::CpuSet::single(shared);
  rt::RtThread caller(tc, [&] {
    for (int r = 0; r < kWarmup + kRounds; ++r) {
      if (r == kWarmup) before = rt::wake_stats();
      // A periodic job's gap: every worker is parked at the next signal.
      rt::sleep_for(micros(500));
      completed += pool.run_round(job_with_od(millis(50)), kNp).completed;
    }
    after = rt::wake_stats();
  });
  caller.join();
  pool.shutdown();
  ASSERT_TRUE(caller.config_status().is_ok());
  EXPECT_EQ(completed, (kWarmup + kRounds) * kNp);
  // Per round: the batched fan-out plus the handback, and a third wake
  // only when a remote part outlasts the whole spin.
  const double wakes_per_round =
      static_cast<double>(after.wake_calls - before.wake_calls) / kRounds;
  EXPECT_LT(wakes_per_round, 2.5) << "wake calls per round";
}

// Periodic rounds as a P-RMWP task runs them: a caller off the parts'
// CPUs waits for each release, runs a "mandatory part", and signals.  The
// workers wake ahead of the predicted signal, so the mandatory duration
// is varied for the command to land while they still sleep (early), in
// their poll window around the prediction, and after it, once they have
// parked again (late).  Every part of every round must run, and no wake
// may be lost: the recovery loop never has to re-wake a slot.
TEST(OptionalPool, PrewokenPeriodicRoundsAllComplete) {
  const int cpus = rt::rt_capabilities().num_cpus;
  const int np = std::max(1, std::min(2, cpus - 1));
  constexpr Nanos kPeriod = millis(1);
  auto options = pool_options(np);
  options.period = kPeriod;
  std::atomic<int> runs{0};
  OptionalPool pool(std::move(options),
                    [&](const JobContext&, int, StopToken&) { ++runs; });
  ASSERT_TRUE(pool.start().is_ok());
  // The median of the pattern (100 µs) is the prediction m̂ settles on;
  // 0 µs lands before the pre-wake, 115 µs inside the window and 200 µs
  // after it (the window is ±kReleaseLead around the prediction).
  constexpr Nanos kMandatory[] = {micros(100), micros(100), micros(0),
                                  micros(100), micros(115), micros(100),
                                  micros(200), micros(100)};
  constexpr int kRounds = 400;
  int completed = 0;
  int terminated = 0;
  rt::ThreadConfig tc;
  tc.name = "pool.m";
  tc.fifo_priority = rt::rt_capabilities().sched_fifo ? 60 : 0;
  tc.affinity = rt::CpuSet::single(cpus - 1);
  rt::RtThread caller(tc, [&] {
    rt::PeriodicClock clock(kPeriod, millis(1));
    clock.start();
    for (int r = 0; r < kRounds; ++r) {
      JobContext ctx;
      ctx.release = clock.wait_next_release();
      ctx.job = clock.job_index();
      ctx.optional_deadline = ctx.release + millis(50);
      ctx.deadline = ctx.release + millis(100);
      const Nanos mandatory_end =
          ctx.release + kMandatory[r % std::size(kMandatory)];
      while (monotonic_now() < mandatory_end) {
      }
      const auto round = pool.run_round(ctx, np);
      completed += round.completed;
      terminated += round.terminated;
    }
  });
  caller.join();
  pool.shutdown();
  EXPECT_EQ(completed, kRounds * np);
  EXPECT_EQ(terminated, 0);
  EXPECT_EQ(runs.load(), kRounds * np);
  EXPECT_EQ(pool.wake_retries(), 0);
}

// The point of the pre-wake: a worker that already polls when the
// predicted command lands starts its part at once, instead of a wake-up
// of a sleeping thread later (≈8–30 µs on a VM whose idle vCPUs halt).
TEST(OptionalPool, PrewokenWorkerStartsWithoutWakeLatency) {
  constexpr int kNp = 2;
  const int cpus = rt::rt_capabilities().num_cpus;
  if (!rt::rt_capabilities().sched_fifo || cpus < kNp + 1) {
    GTEST_SKIP() << "needs SCHED_FIFO and " << kNp + 1 << " CPUs";
  }
  constexpr Nanos kPeriod = millis(1);
  auto options = pool_options(kNp);
  options.period = kPeriod;
  OptionalPool pool(std::move(options), [](const JobContext&, int,
                                           StopToken&) {});
  ASSERT_TRUE(pool.start().is_ok());
  constexpr int kWarmup = 20;
  constexpr int kRounds = 200;
  int completed = 0;
  std::vector<Nanos> start_lag;
  rt::ThreadConfig tc;
  tc.name = "pool.m";
  tc.fifo_priority = 60;
  tc.affinity = rt::CpuSet::single(cpus - 1);
  rt::RtThread caller(tc, [&] {
    rt::PeriodicClock clock(kPeriod, millis(1));
    clock.start();
    for (int r = 0; r < kWarmup + kRounds; ++r) {
      JobContext ctx;
      ctx.release = clock.wait_next_release();
      ctx.job = clock.job_index();
      ctx.optional_deadline = ctx.release + millis(50);
      ctx.deadline = ctx.release + millis(100);
      const Nanos mandatory_end = ctx.release + micros(50);
      while (monotonic_now() < mandatory_end) {
      }
      const auto round = pool.run_round(ctx, kNp);
      completed += round.completed;
      if (r >= kWarmup) {
        start_lag.push_back(round.first_part_start - round.signal_start);
      }
    }
  });
  caller.join();
  pool.shutdown();
  ASSERT_TRUE(caller.config_status().is_ok());
  EXPECT_EQ(completed, (kWarmup + kRounds) * kNp);
  // Median over rounds of signal → first part start: ≈0.5 µs with the
  // pre-wake, ≈16 µs when every worker sleeps until it is woken.  A host
  // stall that delays a worker's own timer past its window only moves
  // single rounds.
  std::sort(start_lag.begin(), start_lag.end());
  EXPECT_LT(start_lag[start_lag.size() / 2], micros(5))
      << "median signal-to-part-start lag (ns)";
}

// A multi-phase job signals its phases back to back, so its workers keep
// their (time-bounded) spin between rounds; every phase of every job must
// still run all of its parts.
TEST(OptionalPool, MultiPhaseBackToBackRoundsComplete) {
  MultiPhaseConfig mc;
  mc.params.name = "b2b";
  mc.params.period = millis(40);
  mc.params.mandatory = {millis(1), millis(1), millis(1), millis(1)};
  mc.params.optional = {{millis(1), millis(1)},
                        {millis(1), millis(1)},
                        {millis(1), millis(1)}};
  mc.num_jobs = 5;
  std::atomic<long> part_runs{0};
  mc.callbacks.optional = [&](const JobContext&, int, int, StopToken&) {
    ++part_runs;
  };
  const auto plan = plan_single_multi_phase(mc.params);
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  // The task keeps a reference.
  const auto topology = common::Topology::native();
  MultiPhaseTask task(mc, *plan, {}, topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  const auto records = task.drain_records();
  ASSERT_EQ(records.size(), 5u);
  for (const auto& rec : records) {
    ASSERT_EQ(rec.phases.size(), 3u);
    for (const auto& phase : rec.phases) {
      EXPECT_EQ(phase.completed, 2) << "job " << rec.job;
      EXPECT_EQ(phase.terminated, 0) << "job " << rec.job;
      EXPECT_EQ(phase.discarded, 0) << "job " << rec.job;
    }
  }
  EXPECT_EQ(part_runs.load(), 30);
}

}  // namespace
}  // namespace rtseed::core
