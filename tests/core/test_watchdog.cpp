// Deadline-miss watchdog hook: the runtime invokes the observer exactly
// when a job's wind-up completes past its deadline.
#include <gtest/gtest.h>

#include <atomic>

#include "core/runtime.hpp"
#include "rt/memory_lock.hpp"

namespace rtseed::core {
namespace {

using common::millis;
using common::Nanos;

TaskConfig task_missing_every_job(Nanos period) {
  TaskConfig tc;
  tc.params.name = "misser";
  tc.params.period = period;
  tc.params.mandatory = period / 20;
  tc.params.windup = period / 20;
  tc.num_jobs = 3;
  tc.callbacks.windup = [](const JobContext& ctx) {
    volatile double sink = 1.0;
    while (common::monotonic_now() < ctx.deadline + millis(3)) {
      sink = sink * 1.0000001 + 1e-9;
    }
  };
  return tc;
}

TEST(Watchdog, FiresOncePerMissedDeadline) {
  std::atomic<long> misses{0};
  std::atomic<common::TaskId> last_task{-1};
  RuntimeOptions options;
  options.initial_offset = millis(5);
  options.on_deadline_miss = [&](common::TaskId id, const JobRecord& rec) {
    ++misses;
    last_task = id;
    EXPECT_FALSE(rec.deadline_met);
    EXPECT_GT(rec.windup_end, rec.deadline);
  };
  Runtime runtime(options);
  ASSERT_TRUE(runtime.admit(task_missing_every_job(millis(40))).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  EXPECT_EQ(misses.load(), 3);
  EXPECT_EQ(last_task.load(), 0);
  EXPECT_EQ(report.tasks[0].qos.deadline_misses, 3);
}

TEST(Watchdog, SilentWhenDeadlinesMet) {
  std::atomic<long> misses{0};
  RuntimeOptions options;
  options.initial_offset = millis(5);
  options.on_deadline_miss = [&](common::TaskId, const JobRecord&) {
    ++misses;
  };
  Runtime runtime(options);
  TaskConfig tc;
  tc.params.name = "ok";
  tc.params.period = millis(40);
  tc.params.mandatory = millis(2);
  tc.params.windup = millis(2);
  tc.num_jobs = 3;
  ASSERT_TRUE(runtime.admit(std::move(tc)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  runtime.stop();
  EXPECT_EQ(misses.load(), 0);
}

TEST(Watchdog, ThrowingObserverIsAbsorbed) {
  RuntimeOptions options;
  options.initial_offset = millis(5);
  options.on_deadline_miss = [](common::TaskId, const JobRecord&) {
    throw std::runtime_error("watchdog blew up");
  };
  Runtime runtime(options);
  ASSERT_TRUE(runtime.admit(task_missing_every_job(millis(40))).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  EXPECT_EQ(report.tasks[0].qos.jobs, 3);  // survived all three throws
}

// set_miss_observer on the task itself (not through the Runtime): exactly
// one invocation per missed job, none for met ones, interleaved correctly.
TEST(Watchdog, TaskMissObserverFiresExactlyOncePerMiss) {
  std::atomic<long> misses{0};
  std::atomic<long> jobs_seen{0};
  common::Topology topology = common::Topology::native();

  TaskConfig tc;
  tc.params.name = "direct";
  tc.params.period = millis(60);
  tc.params.mandatory = millis(2);
  tc.params.windup = millis(2);
  tc.num_jobs = 4;
  // Jobs 1 and 3 overrun their deadline; 0 and 2 finish on time.
  tc.callbacks.windup = [&jobs_seen](const JobContext& ctx) {
    const long job = jobs_seen.fetch_add(1);
    if (job % 2 == 1) {
      volatile double sink = 1.0;
      while (common::monotonic_now() < ctx.deadline + millis(3)) {
        sink = sink * 1.0000001 + 1e-9;
      }
    }
  };

  TaskPlacement placement;
  placement.processor = 0;
  placement.optional_deadline_offset = millis(30);
  TaskRuntimeOptions options;
  options.initial_offset = millis(5);

  ImpreciseTask task(7, std::move(tc), placement, options, topology);
  task.set_miss_observer([&](common::TaskId id, const JobRecord& rec) {
    ++misses;
    EXPECT_EQ(id, 7);
    EXPECT_FALSE(rec.deadline_met);
    EXPECT_EQ(rec.job % 2, 1);  // only the odd jobs overran
  });
  ASSERT_TRUE(task.start().is_ok());
  task.wait_finished();
  task.stop();
  EXPECT_EQ(misses.load(), 2);
}

TEST(Watchdog, MemoryLockOptionDoesNotBreakStartup) {
  RuntimeOptions options;
  options.initial_offset = millis(5);
  options.lock_memory = true;  // denial degrades, success locks — either way OK
  Runtime runtime(options);
  TaskConfig tc;
  tc.params.name = "locked";
  tc.params.period = millis(30);
  tc.params.mandatory = millis(1);
  tc.params.windup = millis(1);
  tc.num_jobs = 2;
  ASSERT_TRUE(runtime.admit(std::move(tc)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  runtime.stop();
  (void)rt::unlock_all_memory();
}

}  // namespace
}  // namespace rtseed::core
