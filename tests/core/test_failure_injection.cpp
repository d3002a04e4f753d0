// Failure injection: the middleware must survive misbehaving user code
// and report degraded QoS instead of crashing, hanging, or missing
// deadlines silently.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/runtime.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::core {
namespace {

using common::millis;
using common::Nanos;

TaskConfig base_task(Nanos period, int np, long jobs) {
  TaskConfig tc;
  tc.params.name = "chaos";
  tc.params.period = period;
  tc.params.mandatory = period / 20;
  tc.params.windup = period / 20;
  for (int k = 0; k < np; ++k) tc.params.optional.push_back(period);
  tc.num_jobs = jobs;
  tc.callbacks.mandatory = [](const JobContext&) {};
  tc.callbacks.optional = [](const JobContext&, int, StopToken&) {};
  tc.callbacks.windup = [](const JobContext&) {};
  return tc;
}

ImpreciseTask make_task(TaskConfig config, const common::Topology& topology) {
  TaskPlacement placement;
  placement.mandatory_priority = rt::rt_capabilities().sched_fifo ? 75 : 0;
  placement.optional_priority = rt::rt_capabilities().sched_fifo ? 26 : 0;
  placement.optional_deadline_offset = config.params.period * 3 / 4;
  return ImpreciseTask(0, std::move(config), placement, {}, topology);
}

TEST(FailureInjection, ThrowingMandatoryDoesNotKillTheTask) {
  const auto topology = common::Topology::native();
  auto config = base_task(millis(30), 1, 4);
  std::atomic<long> windups{0};
  config.callbacks.mandatory = [](const JobContext&) {
    throw std::runtime_error("mandatory blew up");
  };
  config.callbacks.windup = [&](const JobContext&) { ++windups; };
  auto task = make_task(std::move(config), topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(windups.load(), 4);           // every job still wound up
  EXPECT_EQ(task.callback_errors(), 4);   // and every error was counted
}

TEST(FailureInjection, ThrowingWindupDoesNotKillTheTask) {
  const auto topology = common::Topology::native();
  auto config = base_task(millis(30), 1, 3);
  std::atomic<long> mandatories{0};
  config.callbacks.mandatory = [&](const JobContext&) { ++mandatories; };
  config.callbacks.windup = [](const JobContext&) {
    throw std::logic_error("wind-up blew up");
  };
  auto task = make_task(std::move(config), topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(mandatories.load(), 3);
  EXPECT_EQ(task.callback_errors(), 3);
}

TEST(FailureInjection, ThrowingOptionalCountsAsErrorAndJobContinues) {
  const auto topology = common::Topology::native();
  auto config = base_task(millis(30), 2, 3);
  config.callbacks.optional = [](const JobContext&, int part, StopToken&) {
    if (part == 0) throw std::runtime_error("optional blew up");
  };
  auto task = make_task(std::move(config), topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.callback_errors(), 3);  // part 0, every job
  const auto records = task.drain_records();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    // Both parts ended (the thrower counts as completed-with-error).
    EXPECT_EQ(rec.optional_completed + rec.optional_terminated, 2);
  }
}

TEST(FailureInjection, NullCallbacksAreFine) {
  const auto topology = common::Topology::native();
  TaskConfig config;
  config.params.name = "empty";
  config.params.period = millis(20);
  config.params.mandatory = millis(1);
  config.params.windup = millis(1);
  config.params.optional = {millis(20)};
  config.num_jobs = 3;
  // No callbacks at all.
  auto task = make_task(std::move(config), topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(task.drain_records().size(), 3u);
  EXPECT_EQ(task.callback_errors(), 0);
}

TEST(FailureInjection, SlowWindupIsReportedAsDeadlineMiss) {
  const auto topology = common::Topology::native();
  auto config = base_task(millis(40), 0, 3);
  config.callbacks.windup = [](const JobContext& ctx) {
    // Busy-run well past the deadline.
    volatile double sink = 1.0;
    while (common::monotonic_now() < ctx.deadline + millis(5)) {
      sink = sink * 1.0000001 + 1e-9;
    }
  };
  auto task = make_task(std::move(config), topology);
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  const auto records = task.drain_records();
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    EXPECT_FALSE(rec.deadline_met);  // honestly reported, never hidden
  }
}

TEST(FailureInjection, StopDuringLongJobJoinsCleanly) {
  const auto topology = common::Topology::native();
  auto config = base_task(millis(50), 2, 0);  // open-ended
  config.callbacks.optional = [](const JobContext&, int, StopToken&) {
    volatile double sink = 1.0;
    for (;;) sink = sink * 1.0000001 + 1e-9;  // cut by the OD timer
  };
  auto task = make_task(std::move(config), topology);
  ASSERT_TRUE(task.start().is_ok());
  rt::sleep_for(millis(80));  // somewhere inside a job
  task.stop();                // must join without hanging
  EXPECT_FALSE(task.running());
}

TEST(FailureInjection, RuntimeSurvivesMixedGoodAndChaoticTasks) {
  RuntimeOptions options;
  options.initial_offset = millis(5);
  Runtime runtime(options);

  auto good = base_task(millis(40), 1, 3);
  good.params.name = "good";
  std::atomic<long> good_windups{0};
  good.callbacks.windup = [&](const JobContext&) { ++good_windups; };
  ASSERT_TRUE(runtime.admit(std::move(good)).is_ok());

  auto chaotic = base_task(millis(40), 1, 3);
  chaotic.params.name = "chaotic";
  chaotic.callbacks.mandatory = [](const JobContext&) {
    throw std::runtime_error("chaos");
  };
  ASSERT_TRUE(runtime.admit(std::move(chaotic)).is_ok());

  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  EXPECT_EQ(good_windups.load(), 3);
  EXPECT_EQ(report.tasks.size(), 2u);
  EXPECT_EQ(report.tasks[0].qos.jobs, 3);
  EXPECT_EQ(report.tasks[1].qos.jobs, 3);
}

}  // namespace
}  // namespace rtseed::core
