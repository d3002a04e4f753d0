// Budget watchdogs: checkpoint detection of WCET violations on the
// mandatory thread, and the OverrunPolicy ladder applied through
// ImpreciseTask.  The watchdog's handler only sets a thread-local flag, so
// all of this is tsan-safe; the end-to-end tests use the periodic-check
// termination strategy to keep the whole binary signal-jump-free under
// tsan.
#include "fault/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "core/imprecise_task.hpp"
#include "core/runtime.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::fault {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

TEST(FaultTsanWatchdog, BudgetFormula) {
  WatchdogConfig config;
  config.budget_factor = 2.0;
  config.budget_slack = millis(1);
  EXPECT_EQ(config.budget_for(millis(10)), millis(21));
  config.budget_factor = 1.0;
  config.budget_slack = 0;
  EXPECT_EQ(config.budget_for(millis(5)), millis(5));
}

TEST(FaultTsanWatchdog, PolicyAndPartNames) {
  EXPECT_STREQ(overrun_policy_name(OverrunPolicy::kLogOnly), "log-only");
  EXPECT_STREQ(overrun_policy_name(OverrunPolicy::kSkipOptionals),
               "skip-optionals");
  EXPECT_STREQ(overrun_policy_name(OverrunPolicy::kAbortJob), "abort-job");
  EXPECT_STREQ(overrun_policy_name(OverrunPolicy::kDemoteThread),
               "demote-thread");
  EXPECT_STREQ(budget_part_name(BudgetPart::kMandatory), "mandatory");
  EXPECT_STREQ(budget_part_name(BudgetPart::kWindup), "wind-up");
}

TEST(FaultTsanWatchdog, DisarmWithinBudgetIsClean) {
  BudgetWatchdog watchdog;
  ASSERT_TRUE(watchdog.init().is_ok());
  ASSERT_TRUE(watchdog.ready());
  watchdog.arm(monotonic_now() + common::seconds(10));
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(watchdog.disarm());
}

TEST(FaultTsanWatchdog, ExpiryDetectedAtCheckpoint) {
  BudgetWatchdog watchdog;
  ASSERT_TRUE(watchdog.init().is_ok());
  watchdog.arm(monotonic_now() + millis(5));
  // Burn well past the budget; the signal sets the thread-local flag.
  const Nanos until = monotonic_now() + millis(40);
  volatile double sink = 1.0;
  while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
  EXPECT_TRUE(watchdog.fired());
  EXPECT_TRUE(watchdog.disarm());
  // The flag is cleared by disarm; a fresh arm/disarm cycle is clean.
  watchdog.arm(monotonic_now() + common::seconds(10));
  EXPECT_FALSE(watchdog.disarm());
}

TEST(FaultTsanWatchdog, UninitializedWatchdogIsInert) {
  BudgetWatchdog watchdog;
  EXPECT_FALSE(watchdog.ready());
  watchdog.arm(monotonic_now() - millis(1));
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(watchdog.disarm());
}

// ---- OverrunPolicy ladder through ImpreciseTask ------------------------

struct LadderFixture {
  std::atomic<long> optional_runs{0};
  std::atomic<long> windup_runs{0};
  common::Topology topology = common::Topology::native();

  // Mandatory part declares a 1 ms WCET but burns `actual`; tight budget
  // (factor 1, 2 ms slack) makes every job overrun when actual >> 3 ms.
  core::TaskConfig config(long jobs, Nanos actual) {
    core::TaskConfig tc;
    tc.params.name = "ladder";
    tc.params.period = millis(120);
    tc.params.mandatory = millis(1);
    tc.params.windup = millis(10);
    tc.params.optional = {millis(1), millis(1)};
    tc.num_jobs = jobs;
    tc.callbacks.mandatory = [actual](const core::JobContext&) {
      const Nanos until = monotonic_now() + actual;
      volatile double sink = 1.0;
      while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
    };
    tc.callbacks.optional = [this](const core::JobContext&, int,
                                   core::StopToken&) { ++optional_runs; };
    tc.callbacks.windup = [this](const core::JobContext&) { ++windup_runs; };
    return tc;
  }

  core::TaskPlacement placement() {
    core::TaskPlacement p;
    p.processor = 0;
    p.optional_deadline_offset = millis(80);
    return p;
  }

  core::TaskRuntimeOptions options(OverrunPolicy policy) {
    core::TaskRuntimeOptions o;
    o.termination = core::TerminationStrategy::kPeriodicCheck;
    o.initial_offset = millis(5);
    o.watchdog.enabled = true;
    o.watchdog.policy = policy;
    o.watchdog.budget_factor = 1.0;
    o.watchdog.budget_slack = millis(2);
    return o;
  }
};

TEST(FaultTsanWatchdog, LogOnlyCountsButChangesNothing) {
  LadderFixture fx;
  core::ImpreciseTask task(0, fx.config(3, millis(15)), fx.placement(),
                           fx.options(OverrunPolicy::kLogOnly), fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.budget_overruns(), 3);
  EXPECT_EQ(fx.optional_runs.load(), 6);  // optionals untouched
  EXPECT_EQ(fx.windup_runs.load(), 3);
  for (const auto& rec : task.drain_records()) {
    EXPECT_TRUE(rec.mandatory_overrun);
    EXPECT_FALSE(rec.aborted);
    EXPECT_EQ(rec.optional_shed, 0);
    EXPECT_TRUE(rec.optionals_ran);
  }
}

TEST(FaultTsanWatchdog, SkipOptionalsShedsOverrunningJobs) {
  LadderFixture fx;
  core::ImpreciseTask task(0, fx.config(3, millis(15)), fx.placement(),
                           fx.options(OverrunPolicy::kSkipOptionals),
                           fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.budget_overruns(), 3);
  EXPECT_EQ(fx.optional_runs.load(), 0);  // every job shed its optionals
  EXPECT_EQ(fx.windup_runs.load(), 3);    // wind-up still runs
  for (const auto& rec : task.drain_records()) {
    EXPECT_TRUE(rec.mandatory_overrun);
    EXPECT_FALSE(rec.aborted);
    EXPECT_EQ(rec.optional_shed, 2);
    EXPECT_FALSE(rec.optionals_ran);
  }
}

TEST(FaultTsanWatchdog, AbortJobSkipsWindupToo) {
  LadderFixture fx;
  core::ImpreciseTask task(0, fx.config(3, millis(15)), fx.placement(),
                           fx.options(OverrunPolicy::kAbortJob), fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(fx.optional_runs.load(), 0);
  EXPECT_EQ(fx.windup_runs.load(), 0);  // aborted at the checkpoint
  for (const auto& rec : task.drain_records()) {
    EXPECT_TRUE(rec.aborted);
    // Aborted jobs still produce complete transition timestamps.
    EXPECT_GE(rec.windup_end, rec.windup_start);
  }
}

TEST(FaultTsanWatchdog, WellBehavedJobsNeverFlagged) {
  LadderFixture fx;
  // Actual runtime ~0: never overruns its (1 ms x 1.0 + 2 ms) budget.
  core::ImpreciseTask task(0, fx.config(3, 0), fx.placement(),
                           fx.options(OverrunPolicy::kAbortJob), fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.budget_overruns(), 0);
  EXPECT_EQ(fx.optional_runs.load(), 6);
  EXPECT_EQ(fx.windup_runs.load(), 3);
}

TEST(FaultTsanWatchdog, OverrunObserverFiresOncePerOverrun) {
  LadderFixture fx;
  std::atomic<long> observed{0};
  std::atomic<int> last_part{-1};
  core::ImpreciseTask task(0, fx.config(3, millis(15)), fx.placement(),
                           fx.options(OverrunPolicy::kSkipOptionals),
                           fx.topology);
  task.set_overrun_observer(
      [&](common::TaskId id, BudgetPart part, const core::JobRecord& rec) {
        ++observed;
        last_part = static_cast<int>(part);
        EXPECT_EQ(id, 0);
        EXPECT_TRUE(rec.mandatory_overrun);
      });
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(observed.load(), 3);  // exactly once per overrunning job
  EXPECT_EQ(last_part.load(), static_cast<int>(BudgetPart::kMandatory));
}

TEST(FaultTsanWatchdog, WindupOverrunDetected) {
  LadderFixture fx;
  auto config = fx.config(2, 0);
  config.callbacks.windup = [&fx](const core::JobContext&) {
    ++fx.windup_runs;
    const Nanos until = monotonic_now() + millis(20);
    volatile double sink = 1.0;
    while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
  };
  // windup WCET 10 ms x 1.0 + 2 ms slack = 12 ms budget; body burns 20 ms.
  core::ImpreciseTask task(0, std::move(config), fx.placement(),
                           fx.options(OverrunPolicy::kLogOnly), fx.topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.budget_overruns(), 2);
  for (const auto& rec : task.drain_records()) {
    EXPECT_FALSE(rec.mandatory_overrun);
    EXPECT_TRUE(rec.windup_overrun);
  }
}

TEST(FaultTsanWatchdog, RuntimeOnBudgetOverrunCallback) {
  std::atomic<long> overruns{0};
  core::RuntimeOptions options;
  options.initial_offset = millis(5);
  options.termination = core::TerminationStrategy::kPeriodicCheck;
  options.watchdog.enabled = true;
  options.watchdog.policy = OverrunPolicy::kLogOnly;
  options.watchdog.budget_factor = 1.0;
  options.watchdog.budget_slack = millis(2);
  options.on_budget_overrun = [&](common::TaskId, BudgetPart,
                                  const core::JobRecord&) { ++overruns; };
  core::Runtime runtime(options);
  core::TaskConfig tc;
  tc.params.name = "burner";
  tc.params.period = millis(100);
  tc.params.mandatory = millis(1);
  tc.params.windup = millis(1);
  tc.num_jobs = 2;
  tc.callbacks.mandatory = [](const core::JobContext&) {
    const Nanos until = monotonic_now() + millis(15);
    volatile double sink = 1.0;
    while (monotonic_now() < until) sink = sink * 1.0000001 + 1e-9;
  };
  ASSERT_TRUE(runtime.admit(std::move(tc)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  EXPECT_EQ(overruns.load(), 2);
  EXPECT_EQ(report.tasks[0].budget_overruns, 2);
}

}  // namespace
}  // namespace rtseed::fault
