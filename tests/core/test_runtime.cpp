// Runtime facade tests: admission -> analysis -> start -> report, on the
// real middleware with short periods.
#include "core/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace rtseed::core {
namespace {

using common::millis;

TaskConfig quick_task(const std::string& name, Nanos period, int np,
                      long jobs, std::atomic<long>* windups) {
  TaskConfig tc;
  tc.params.name = name;
  tc.params.period = period;
  tc.params.mandatory = period / 20;
  tc.params.windup = period / 20;
  for (int k = 0; k < np; ++k) tc.params.optional.push_back(period);
  tc.num_jobs = jobs;
  tc.callbacks.mandatory = [](const JobContext&) {};
  // Pure CPU-bound loop that never polls: termination is always by the
  // optional-deadline timer, exactly the paper's worst-case setup.
  tc.callbacks.optional = [](const JobContext&, int, StopToken&) {
    volatile double sink = 1.0;
    for (;;) sink = sink * 1.0000001 + 1e-9;
  };
  tc.callbacks.windup = [windups](const JobContext&) {
    if (windups != nullptr) ++*windups;
  };
  return tc;
}

RuntimeOptions quick_options() {
  RuntimeOptions options;
  options.initial_offset = millis(5);
  return options;
}

TEST(Runtime, AdmitValidatesParameters) {
  Runtime runtime(quick_options());
  TaskConfig bad;
  bad.params.period = -5;
  EXPECT_FALSE(runtime.admit(bad).is_ok());
  EXPECT_TRUE(runtime.admit(quick_task("ok", millis(50), 1, 1, nullptr))
                  .is_ok());
  EXPECT_EQ(runtime.num_tasks(), 1);
}

TEST(Runtime, AnalyzeWithoutTasksFails) {
  Runtime runtime(quick_options());
  EXPECT_FALSE(runtime.analyze().has_value());
}

TEST(Runtime, AnalyzeProducesPlanWithPaperPriorities) {
  Runtime runtime(quick_options());
  ASSERT_TRUE(
      runtime.admit(quick_task("a", millis(50), 2, 1, nullptr)).is_ok());
  const auto plan = runtime.analyze();
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_TRUE(plan->schedulable);
  EXPECT_EQ(plan->tasks[0].mandatory_priority, 98);
  EXPECT_EQ(plan->tasks[0].optional_priority, 49);
}

TEST(Runtime, StartRunsTasksToCompletion) {
  std::atomic<long> windups{0};
  Runtime runtime(quick_options());
  ASSERT_TRUE(
      runtime.admit(quick_task("a", millis(40), 2, 3, &windups)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  EXPECT_EQ(windups.load(), 3);
  ASSERT_EQ(report.tasks.size(), 1u);
  EXPECT_EQ(report.tasks[0].qos.jobs, 3);
  EXPECT_EQ(report.tasks[0].qos.optional_terminated, 6);  // 2 x 3, all overrun
  EXPECT_EQ(report.tasks[0].dropped_records, 0u);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(Runtime, MultipleTasksRunConcurrently) {
  std::atomic<long> w1{0}, w2{0};
  Runtime runtime(quick_options());
  ASSERT_TRUE(
      runtime.admit(quick_task("fast", millis(30), 1, 4, &w1)).is_ok());
  ASSERT_TRUE(
      runtime.admit(quick_task("slow", millis(60), 1, 2, &w2)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  EXPECT_EQ(w1.load(), 4);
  EXPECT_EQ(w2.load(), 2);
  // RM: the faster task holds the higher priority.
  EXPECT_GT(report.tasks[0].plan.mandatory_priority,
            report.tasks[1].plan.mandatory_priority);
}

TEST(Runtime, DoubleStartRejected) {
  Runtime runtime(quick_options());
  ASSERT_TRUE(
      runtime.admit(quick_task("a", millis(40), 1, 2, nullptr)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  EXPECT_FALSE(runtime.start().is_ok());
  runtime.wait_all_finished();
  runtime.stop();
}

TEST(Runtime, AdmitAfterStartRejected) {
  Runtime runtime(quick_options());
  ASSERT_TRUE(
      runtime.admit(quick_task("a", millis(40), 1, 2, nullptr)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  EXPECT_FALSE(
      runtime.admit(quick_task("b", millis(40), 1, 1, nullptr)).is_ok());
  runtime.wait_all_finished();
  runtime.stop();
}

TEST(Runtime, UnschedulableSetRejectedAtStart) {
  RuntimeOptions options = quick_options();
  options.topology = common::Topology::uniform(1, 1);  // single processor
  Runtime runtime(options);
  for (int i = 0; i < 3; ++i) {
    TaskConfig tc = quick_task("t" + std::to_string(i), millis(40), 0, 1,
                               nullptr);
    tc.params.mandatory = millis(10);
    tc.params.windup = millis(10);  // U = 0.5 each; three do not fit
    ASSERT_TRUE(runtime.admit(tc).is_ok());
  }
  EXPECT_FALSE(runtime.start().is_ok());
}

TEST(Runtime, QueueMirrorTracksTransitions) {
  RuntimeOptions options = quick_options();
  options.mirror_queues = true;
  Runtime runtime(options);
  ASSERT_TRUE(
      runtime.admit(quick_task("a", millis(40), 1, 3, nullptr)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto snap = runtime.queue_snapshot();
  // After the last job the task sleeps until its (never-taken) next
  // release: exactly one SQ resident, nothing ready.
  EXPECT_EQ(snap.sq, 1u);
  EXPECT_EQ(snap.rtq + snap.nrtq + snap.hpq, 0u);
  runtime.stop();
}

TEST(Runtime, NamesDefaultWhenEmpty) {
  Runtime runtime(quick_options());
  TaskConfig tc = quick_task("", millis(40), 0, 1, nullptr);
  ASSERT_TRUE(runtime.admit(tc).is_ok());
  const auto plan = runtime.analyze();
  ASSERT_TRUE(plan.has_value());
}

TEST(Runtime, ReportIncludesOverheadSummaries) {
  Runtime runtime(quick_options());
  ASSERT_TRUE(
      runtime.admit(quick_task("a", millis(40), 2, 5, nullptr)).is_ok());
  ASSERT_TRUE(runtime.start().is_ok());
  runtime.wait_all_finished();
  const auto report = runtime.stop_and_report();
  const auto& oh = report.tasks[0].overheads;
  EXPECT_EQ(oh.delta_m.count, 5u);
  EXPECT_EQ(oh.delta_b.count, 5u);
  EXPECT_EQ(oh.delta_e.count, 5u);
  EXPECT_GT(oh.delta_b.mean, 0.0);
}

}  // namespace
}  // namespace rtseed::core
