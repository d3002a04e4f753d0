// End-to-end tests of the ImpreciseTask thread protocol (paper Fig. 6) on
// real POSIX threads.  Periods are tens of milliseconds so each test runs
// in well under a second; margins are generous because the host is shared.
#include "core/imprecise_task.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "rt/periodic_clock.hpp"

namespace rtseed::core {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

struct Fixture {
  std::atomic<long> mandatory_runs{0};
  std::atomic<long> optional_runs{0};
  std::atomic<long> windup_runs{0};
  std::atomic<long> optional_progress{0};
  std::atomic<bool> windup_overlapped_optional{false};

  common::Topology topology = common::Topology::native();

  // `polls` selects the body style: a polling loop (required by the
  // periodic-check strategy) or a pure CPU-bound loop that can only be
  // stopped by the deadline timer (the paper's worst case; avoids the
  // benign poll-vs-timer race at the OD boundary).
  TaskConfig config(Nanos period, Nanos od_work, int np, long jobs,
                    bool optional_overruns, bool polls = false) {
    TaskConfig tc;
    tc.params.name = "t";
    tc.params.period = period;
    tc.params.mandatory = period / 10;
    tc.params.windup = period / 10;
    for (int k = 0; k < np; ++k) tc.params.optional.push_back(od_work);
    tc.num_jobs = jobs;
    tc.callbacks.mandatory = [this](const JobContext&) { ++mandatory_runs; };
    tc.callbacks.optional = [this, optional_overruns, polls](
                                const JobContext&, int /*part*/,
                                StopToken& token) {
      ++optional_runs;
      volatile double sink = 1.0;
      if (optional_overruns) {
        for (;;) {
          for (int i = 0; i < 1000; ++i) sink = sink * 1.0000001 + 1e-9;
          ++optional_progress;
          if (polls && token.should_stop()) break;
        }
      }
    };
    tc.callbacks.windup = [this](const JobContext&) {
      // Overlap detector: a terminated optional part can no longer bump
      // the progress counter, so any advance observed while the wind-up
      // part runs means an optional part was still executing.
      const long before = optional_progress.load();
      const Nanos until = monotonic_now() + millis(2);
      volatile double sink = 1.0;
      while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
      if (optional_progress.load() != before) {
        windup_overlapped_optional = true;
      }
      ++windup_runs;
    };
    return tc;
  }

  TaskPlacement placement(Nanos od_offset) {
    TaskPlacement p;
    p.processor = 0;
    p.mandatory_priority = rt::rt_capabilities().sched_fifo ? 80 : 0;
    p.optional_priority = rt::rt_capabilities().sched_fifo ? 31 : 0;
    p.optional_deadline_offset = od_offset;
    return p;
  }
};

TEST(ImpreciseTask, RunsConfiguredNumberOfJobs) {
  Fixture fx;
  TaskRuntimeOptions options;
  options.initial_offset = millis(5);
  ImpreciseTask task(0, fx.config(millis(50), millis(1), 2, 4, false),
                     fx.placement(millis(40)), options, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(fx.mandatory_runs.load(), 4);
  EXPECT_EQ(fx.windup_runs.load(), 4);
  EXPECT_EQ(fx.optional_runs.load(), 8);  // 2 parts x 4 jobs
}

TEST(ImpreciseTask, RecordsHaveCompleteTimestamps) {
  Fixture fx;
  ImpreciseTask task(0, fx.config(millis(50), millis(1), 2, 3, false),
                     fx.placement(millis(40)), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  const auto records = task.drain_records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_GE(rec.mandatory_start, rec.release);
    EXPECT_GE(rec.mandatory_end, rec.mandatory_start);
    EXPECT_TRUE(rec.optionals_ran);
    EXPECT_GE(rec.signal_end, rec.signal_start);
    EXPECT_GE(rec.windup_end, rec.windup_start);
    EXPECT_EQ(rec.optional_completed + rec.optional_terminated, 2);
    EXPECT_EQ(rec.optional_discarded, 0);
    EXPECT_EQ(rec.deadline, rec.release + millis(50));
    EXPECT_EQ(rec.optional_deadline, rec.release + millis(40));
  }
  // Jobs are consecutive.
  EXPECT_EQ(records[0].job + 1, records[1].job);
}

TEST(ImpreciseTask, OverrunningOptionalsAreTerminatedAtOd) {
  Fixture fx;
  // Optional parts spin forever; OD at 20ms into a 60ms period.
  ImpreciseTask task(0, fx.config(millis(60), millis(60), 2, 3, true),
                     fx.placement(millis(20)), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  const auto records = task.drain_records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.optional_terminated, 2) << "job " << rec.job;
    EXPECT_EQ(rec.optional_completed, 0);
    // Wind-up begins at/after the OD, well before the deadline.
    EXPECT_GE(rec.windup_start, rec.optional_deadline);
    EXPECT_LT(rec.delta_e(), millis(30));
    EXPECT_TRUE(rec.deadline_met);
  }
  EXPECT_GT(fx.optional_progress.load(), 0);
  EXPECT_FALSE(fx.windup_overlapped_optional.load());
}

TEST(ImpreciseTask, WindupNeverOverlapsOptionals) {
  Fixture fx;
  ImpreciseTask task(0, fx.config(millis(40), millis(40), 3, 5, true),
                     fx.placement(millis(15)), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_FALSE(fx.windup_overlapped_optional.load());
  EXPECT_EQ(fx.windup_runs.load(), 5);
}

TEST(ImpreciseTask, ZeroOptionalPartsDegeneratesToMandatoryWindup) {
  Fixture fx;
  ImpreciseTask task(0, fx.config(millis(30), 0, 0, 3, false),
                     fx.placement(millis(25)), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(fx.mandatory_runs.load(), 3);
  EXPECT_EQ(fx.optional_runs.load(), 0);
  EXPECT_EQ(fx.windup_runs.load(), 3);
  const auto records = task.drain_records();
  for (const auto& rec : records) EXPECT_FALSE(rec.optionals_ran);
}

TEST(ImpreciseTask, DiscardsOptionalsWhenMandatoryOverrunsOd) {
  Fixture fx;
  auto config = fx.config(millis(60), millis(60), 2, 3, true);
  // Mandatory busy-spins past the OD (15 ms < 25 ms spin).
  config.callbacks.mandatory = [&fx](const JobContext&) {
    ++fx.mandatory_runs;
    const Nanos until = monotonic_now() + millis(25);
    volatile double sink = 1.0;
    while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
  };
  ImpreciseTask task(0, std::move(config), fx.placement(millis(15)), {},
                     fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(fx.optional_runs.load(), 0);  // never signalled
  EXPECT_EQ(fx.windup_runs.load(), 3);    // wind-up still ran (Fig. 1)
  for (const auto& rec : task.drain_records()) {
    EXPECT_EQ(rec.optional_discarded, 2);
    EXPECT_FALSE(rec.optionals_ran);
  }
}

TEST(ImpreciseTask, StopEndsAnOpenEndedTask) {
  Fixture fx;
  ImpreciseTask task(0, fx.config(millis(20), millis(1), 1, 0, false),
                     fx.placement(millis(15)), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  rt::sleep_for(millis(100));
  task.stop();
  EXPECT_GT(fx.mandatory_runs.load(), 1);
  EXPECT_FALSE(task.running());
}

TEST(ImpreciseTask, DoubleStartRejected) {
  Fixture fx;
  ImpreciseTask task(0, fx.config(millis(20), millis(1), 1, 2, false),
                     fx.placement(millis(15)), {}, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  EXPECT_EQ(task.start().code(), common::ErrorCode::kFailedPrecondition);
  task.wait_finished();
  task.stop();
}

TEST(ImpreciseTask, PeriodicCheckStrategyWorksEndToEnd) {
  Fixture fx;
  TaskRuntimeOptions options;
  options.termination = TerminationStrategy::kPeriodicCheck;
  ImpreciseTask task(0,
                     fx.config(millis(60), millis(60), 2, 3, true,
                               /*polls=*/true),
                     fx.placement(millis(20)), options, fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  for (const auto& rec : task.drain_records()) {
    EXPECT_EQ(rec.optional_terminated, 2);
  }
}

TEST(ImpreciseTask, TransitionObserverSeesCanonicalSequence) {
  Fixture fx;
  std::vector<TaskTransition> transitions;
  std::mutex mutex;
  ImpreciseTask task(0, fx.config(millis(50), millis(1), 1, 2, false),
                     fx.placement(millis(40)), {}, fx.topology);
  task.set_transition_observer(
      [&](common::TaskId, TaskTransition tr, Nanos) {
        std::lock_guard lock(mutex);
        transitions.push_back(tr);
      });
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  // Per job: released -> optionals-started -> windup -> finished.
  ASSERT_EQ(transitions.size(), 8u);
  for (size_t job = 0; job < 2; ++job) {
    EXPECT_EQ(transitions[job * 4 + 0], TaskTransition::kReleased);
    EXPECT_EQ(transitions[job * 4 + 1], TaskTransition::kOptionalsStarted);
    EXPECT_EQ(transitions[job * 4 + 2], TaskTransition::kWindupStarted);
    EXPECT_EQ(transitions[job * 4 + 3], TaskTransition::kJobFinished);
  }
}

TEST(ImpreciseTask, OptionalCpusFollowPolicy) {
  Fixture fx;
  TaskRuntimeOptions options;
  options.policy = AssignmentPolicy::kAllByAll;
  ImpreciseTask task(0, fx.config(millis(50), millis(1), 3, 1, false),
                     fx.placement(millis(40)), options, fx.topology);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(task.optional_cpu(k),
              assign_cpu(fx.topology, AssignmentPolicy::kAllByAll, k));
  }
}

}  // namespace
}  // namespace rtseed::core
