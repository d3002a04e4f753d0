#include "core/qos.hpp"

#include <gtest/gtest.h>

namespace rtseed::core {
namespace {

using common::micros;
using common::millis;

JobRecord make_record(Nanos release, bool ran_optionals) {
  JobRecord rec;
  rec.release = release;
  rec.deadline = release + millis(100);
  rec.optional_deadline = release + millis(70);
  rec.mandatory_start = release + micros(50);
  rec.mandatory_end = release + millis(10);
  if (ran_optionals) {
    rec.optionals_ran = true;
    rec.signal_start = rec.mandatory_end;
    rec.signal_end = rec.mandatory_end + micros(30);
    rec.first_optional_start = rec.signal_end + micros(10);
    rec.windup_start = rec.optional_deadline + micros(200);
    rec.optional_terminated = 2;
    rec.optional_completed = 1;
  } else {
    rec.optional_discarded = 3;
    rec.windup_start = rec.mandatory_end;
  }
  rec.windup_end = rec.windup_start + millis(5);
  rec.deadline_met = true;
  return rec;
}

TEST(JobRecord, DeltaAccessors) {
  const auto rec = make_record(0, true);
  EXPECT_EQ(rec.delta_m(), micros(50));
  EXPECT_EQ(rec.delta_b(), micros(30));
  EXPECT_EQ(rec.delta_s(), micros(10));
  EXPECT_EQ(rec.delta_e(), micros(200));
}

// A pre-woken worker can take its command while the signal loop still
// runs: its part starts before signal_end.  Δs is then 0, never negative
// (the telemetry histograms record it unsigned).
TEST(JobRecord, DeltaSIsZeroWhenThePartStartsInsideTheSignalLoop) {
  auto rec = make_record(0, true);
  rec.first_optional_start = rec.signal_end - micros(2);
  EXPECT_EQ(rec.delta_s(), 0);
  rec.first_optional_start = rec.signal_end;
  EXPECT_EQ(rec.delta_s(), 0);
}

TEST(JobRecord, DeltasZeroWhenOptionalsDiscarded) {
  const auto rec = make_record(0, false);
  EXPECT_EQ(rec.delta_b(), 0);
  EXPECT_EQ(rec.delta_s(), 0);
  EXPECT_EQ(rec.delta_e(), 0);
  EXPECT_EQ(rec.delta_m(), micros(50));
}

TEST(JobRecord, DeltaEZeroWithoutTerminations) {
  auto rec = make_record(0, true);
  rec.optional_terminated = 0;
  rec.optional_completed = 3;
  rec.windup_start = rec.optional_deadline - millis(5);  // early completion
  EXPECT_EQ(rec.delta_e(), 0);
}

TEST(SummarizeOverheads, AggregatesInMicroseconds) {
  std::vector<JobRecord> records{make_record(0, true),
                                 make_record(millis(100), true)};
  const auto summary = summarize_overheads(records);
  EXPECT_EQ(summary.delta_m.count, 2u);
  EXPECT_DOUBLE_EQ(summary.delta_m.mean, 50.0);
  EXPECT_DOUBLE_EQ(summary.delta_b.mean, 30.0);
  EXPECT_DOUBLE_EQ(summary.delta_s.mean, 10.0);
  EXPECT_DOUBLE_EQ(summary.delta_e.mean, 200.0);
}

TEST(SummarizeOverheads, SkipsNonApplicableJobs) {
  std::vector<JobRecord> records{make_record(0, true),
                                 make_record(millis(100), false)};
  const auto summary = summarize_overheads(records);
  EXPECT_EQ(summary.delta_m.count, 2u);  // always measured
  EXPECT_EQ(summary.delta_b.count, 1u);  // only when optionals ran
  EXPECT_EQ(summary.delta_e.count, 1u);
}

TEST(SummarizeQos, CountsOutcomes) {
  std::vector<JobRecord> records{make_record(0, true),
                                 make_record(millis(100), false)};
  records[0].deadline_met = false;
  const auto qos = summarize_qos(records);
  EXPECT_EQ(qos.jobs, 2);
  EXPECT_EQ(qos.deadline_misses, 1);
  EXPECT_EQ(qos.optional_completed, 1);
  EXPECT_EQ(qos.optional_terminated, 2);
  EXPECT_EQ(qos.optional_discarded, 3);
  EXPECT_FALSE(qos.to_string().empty());
}

TEST(SummarizeQos, WindowUseInUnitRange) {
  const auto qos = summarize_qos({make_record(0, true)});
  EXPECT_GT(qos.mean_optional_window_use, 0.0);
  EXPECT_LE(qos.mean_optional_window_use, 1.0);
}

TEST(SummarizeQos, EmptyRecords) {
  const auto qos = summarize_qos({});
  EXPECT_EQ(qos.jobs, 0);
  EXPECT_DOUBLE_EQ(qos.mean_optional_window_use, 0.0);
}

}  // namespace
}  // namespace rtseed::core
