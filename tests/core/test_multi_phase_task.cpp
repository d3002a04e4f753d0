// End-to-end tests of the practical imprecise computation model runtime
// (multiple mandatory parts, per-phase optional deadlines) on real
// threads.
#include "core/multi_phase_task.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace rtseed::core {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

struct Fixture {
  std::atomic<long> segment_runs[4] = {};
  std::atomic<long> phase_runs[4] = {};
  common::Topology topology = common::Topology::native();

  // T = 80 ms; three segments of ~2 ms each; two phases whose parts spin
  // until their per-phase deadline timers end them.
  MultiPhaseConfig config(long jobs, bool overrun_optionals) {
    MultiPhaseConfig mc;
    mc.params.name = "mp";
    mc.params.period = millis(80);
    mc.params.mandatory = {millis(2), millis(2), millis(2)};
    mc.params.optional = {{millis(80)}, {millis(80), millis(80)}};
    mc.num_jobs = jobs;
    mc.callbacks.mandatory = [this](const JobContext&, int segment) {
      ++segment_runs[segment];
    };
    mc.callbacks.optional = [this, overrun_optionals](const JobContext&,
                                                      int phase, int /*part*/,
                                                      StopToken&) {
      ++phase_runs[phase];
      volatile double sink = 1.0;
      if (overrun_optionals) {
        for (;;) sink = sink * 1.0000001 + 1e-9;
      }
    };
    return mc;
  }

  // Explicit, earlier-than-analysis optional deadlines (always safe under
  // RMWP-MP) so each phase has a deterministic window even on a loaded
  // host: phase 0 in [~2ms, 30ms), phase 1 in [~32ms, 60ms).
  MultiPhasePlacement placement(const MultiPhaseConfig& mc) {
    auto plan = plan_single_multi_phase(mc.params);
    EXPECT_TRUE(plan.has_value()) << plan.status().to_string();
    MultiPhasePlacement p = plan.value_or(MultiPhasePlacement{});
    p.optional_deadline_offsets = {millis(30), millis(60)};
    return p;
  }
};

TEST(PlanSingleMultiPhase, ComputesPerPhaseDeadlines) {
  Fixture fx;
  const auto mc = fx.config(1, true);
  const auto plan = plan_single_multi_phase(mc.params);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->optional_deadline_offsets.size(), 2u);
  // OD⁰ = D − (m²+m³) = 80 − 4 = 76 ms; OD¹ = D − m³ = 78 ms.
  EXPECT_EQ(plan->optional_deadline_offsets[0], millis(76));
  EXPECT_EQ(plan->optional_deadline_offsets[1], millis(78));
}

TEST(PlanSingleMultiPhase, RejectsInfeasibleTask) {
  sched::MultiPhaseTaskParams params;
  params.name = "fat";
  params.period = millis(10);
  params.mandatory = {millis(8), millis(8)};
  EXPECT_FALSE(plan_single_multi_phase(params).has_value());
}

TEST(MultiPhaseTask, RunsAllSegmentsAndPhases) {
  Fixture fx;
  auto mc = fx.config(3, true);
  MultiPhaseTask task(mc, fx.placement(mc), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(fx.segment_runs[0].load(), 3);
  EXPECT_EQ(fx.segment_runs[1].load(), 3);
  EXPECT_EQ(fx.segment_runs[2].load(), 3);
  EXPECT_EQ(fx.phase_runs[0].load(), 3);  // 1 part x 3 jobs
  // Phase 1 has 2 parts x 3 jobs.  On a single-CPU host the two
  // same-priority SCHED_FIFO parts serialize: part 0 spins until the OD,
  // so part 1 can be terminated before its body ever starts (zero
  // optional time — still a valid imprecise outcome).  On an SMP host all
  // six bodies start.
  EXPECT_GE(fx.phase_runs[1].load(), 3);
  EXPECT_LE(fx.phase_runs[1].load(), 6);
}

TEST(MultiPhaseTask, RecordsPerPhaseOutcomes) {
  Fixture fx;
  auto mc = fx.config(3, true);
  MultiPhaseTask task(mc, fx.placement(mc), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  const auto records = task.drain_records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    ASSERT_EQ(rec.phases.size(), 2u);
    EXPECT_EQ(rec.phases[0].terminated, 1);  // overrunning parts
    EXPECT_EQ(rec.phases[1].terminated, 2);
    EXPECT_EQ(rec.phases[0].discarded, 0);
    EXPECT_TRUE(rec.deadline_met);
    EXPECT_LE(rec.finished, rec.deadline);
  }
}

TEST(MultiPhaseTask, FastOptionalsComplete) {
  Fixture fx;
  auto mc = fx.config(2, false);  // bodies return immediately
  MultiPhaseTask task(mc, fx.placement(mc), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  for (const auto& rec : task.drain_records()) {
    EXPECT_EQ(rec.phases[0].completed, 1);
    EXPECT_EQ(rec.phases[1].completed, 2);
  }
  EXPECT_EQ(task.callback_errors(), 0);
}

TEST(MultiPhaseTask, SegmentOverrunningPhaseDeadlineDiscardsThatPhase) {
  Fixture fx;
  auto mc = fx.config(2, true);
  // First segment spins past OD⁰ (30 ms): phase 0 must be discarded, but
  // segment 2 and phase 1 still run in their own window (OD¹ = 60 ms).
  mc.callbacks.mandatory = [&fx](const JobContext&, int segment) {
    ++fx.segment_runs[segment];
    if (segment == 0) {
      const Nanos until = monotonic_now() + millis(35);
      volatile double sink = 1.0;
      while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
    }
  };
  MultiPhaseTask task(mc, fx.placement(mc), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  const auto records = task.drain_records();
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    EXPECT_EQ(rec.phases[0].discarded, 1);
    EXPECT_EQ(rec.phases[0].completed + rec.phases[0].terminated, 0);
  }
  EXPECT_EQ(fx.phase_runs[0].load(), 0);         // never signalled
  EXPECT_EQ(fx.segment_runs[2].load(),
            fx.segment_runs[0].load());          // later segments still ran
}

TEST(MultiPhaseTask, ExceptionInSegmentIsAbsorbed) {
  Fixture fx;
  auto mc = fx.config(2, false);
  mc.callbacks.mandatory = [&fx](const JobContext&, int segment) {
    ++fx.segment_runs[segment];
    if (segment == 1) throw std::runtime_error("boom");
  };
  MultiPhaseTask task(mc, fx.placement(mc), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.callback_errors(), 2);  // one per job
  EXPECT_EQ(fx.segment_runs[2].load(), 2);  // job continued
}

TEST(MultiPhaseTask, StartValidatesPlacement) {
  Fixture fx;
  auto mc = fx.config(1, true);
  MultiPhasePlacement missing;  // no deadlines
  MultiPhaseTask task(mc, missing, {}, fx.topology);
  EXPECT_EQ(task.start().code(), common::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace rtseed::core
