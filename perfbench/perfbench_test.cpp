// The benchmark's own tests: statistics, span self time, job tiling, the
// trace export, and a tiny run of every workload with its checks on.
// Run through `python3 perfbench/run.py --test`.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench.hpp"
#include "oms_jobs.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(10000, 0.99), 100);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_LT(samples_beyond(500, 0.99), 10);
}

TEST(Stats, UnionLengthMergesOverlapsAndSkipsGaps) {
  std::vector<std::pair<Nanos, Nanos>> parts = {
      {50, 60}, {10, 30}, {20, 40}, {40, 45}, {70, 70}};
  EXPECT_EQ(union_length(parts), (45 - 10) + (60 - 50));
  std::vector<std::pair<Nanos, Nanos>> none;
  EXPECT_EQ(union_length(none), 0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanLog log(16);
  const int root = log.add("root", 1, 0, 100, 0);
  const int a = log.add("a", 1, 10, 30, 1, root);
  log.add("b", 1, 20, 50, 1, root);   // overlaps a
  log.add("c", 1, 80, 120, 1, root);  // runs past root: clipped at 100
  log.add("a.child", 1, 15, 20, 2, a);
  const std::vector<Nanos> self = log.self_times();
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - (40 + 20));  // [10,50] and [80,100] covered
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(Spans, FullLogRecordsNoMore) {
  SpanLog log(2);
  EXPECT_EQ(log.add("x", 0, 0, 1, 0), 0);
  EXPECT_EQ(log.add("x", 0, 1, 2, 0), 1);
  EXPECT_EQ(log.add("x", 0, 2, 3, 0), -1);
  EXPECT_EQ(log.durations_us("x").size(), 2u);
}

TEST(Spans, ChromeTraceHasSlicesAndOneFlowPerId) {
  SpanLog log(16);
  for (u64 id = 0; id < 3; ++id) {
    const Nanos base = static_cast<Nanos>(id) * 1000;
    const int root = log.add("job", id, base, base + 900, 0);
    log.add("trading.mandatory", id, base + 10, base + 100, 1, root);
    log.add("trading.windup", id, base + 200, base + 300, 1, root);
  }
  const std::string doc = log.chrome_trace({"jobs", "mandatory"}, 2);
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("trading.mandatory"), std::string::npos);
  // Ids 0 and 1 exported (max_ids = 2): two flow starts and two finishes.
  auto count = [&doc](const std::string& needle) {
    usize n = 0;
    for (usize pos = doc.find(needle); pos != std::string::npos;
         pos = doc.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"s\""), 2u);
  EXPECT_EQ(count("\"ph\":\"f\""), 2u);
  EXPECT_EQ(count("\"ph\":\"X\""), 6u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");
}

JobStamps stamped_job() {
  JobStamps s;
  s.release = 1000;
  s.deadline = 2000;
  s.optional_deadline = 1135;
  s.m_start = 1010;
  s.m_end = 1050;
  s.o_start[0] = 1060;
  s.o_end[0] = 1100;
  s.o_start[1] = 1070;
  s.o_end[1] = 1090;
  s.o_start[2] = 1120;
  s.o_end[2] = 1130;
  s.w_start = 1140;
  s.w_end = 1160;
  s.done = 1165;
  return s;
}

TEST(Tiling, SegmentsOfAStampedJob) {
  const JobTiling t = tile_job(stamped_job());
  EXPECT_TRUE(t.ordered);
  EXPECT_EQ(t.release_lag, 10);
  EXPECT_EQ(t.mandatory, 40);
  EXPECT_EQ(t.dispatch, 10);
  EXPECT_EQ(t.optional, 50);  // [1060,1100] + [1120,1130]
  EXPECT_EQ(t.holes, 20);
  EXPECT_EQ(t.collect, 10);
  EXPECT_EQ(t.windup, 20);
  EXPECT_EQ(t.drain, 5);
  EXPECT_EQ(t.response, 165);
}

TEST(Tiling, TerminatedPartEndsAtItsOptionalDeadline) {
  JobStamps s = stamped_job();
  s.o_end[2] = 0;  // cut: ends at the optional deadline, 1135
  const JobTiling t = tile_job(s);
  EXPECT_TRUE(t.ordered);
  EXPECT_EQ(t.optional, 40 + 15);
  EXPECT_EQ(t.collect, 5);
}

TEST(Tiling, DiscardedOptionalsLeaveOneCollectGap) {
  JobStamps s = stamped_job();
  for (int k = 0; k < kBands; ++k) s.o_start[k] = s.o_end[k] = 0;
  const JobTiling t = tile_job(s);
  EXPECT_TRUE(t.ordered);
  EXPECT_EQ(t.optional, 0);
  EXPECT_EQ(t.collect, 1140 - 1050);
}

TEST(Tiling, OutOfOrderStampsAreFlagged) {
  JobStamps s = stamped_job();
  s.w_start = 1095;  // wind-up entered before the last optional exit
  EXPECT_FALSE(tile_job(s).ordered);
  s = stamped_job();
  s.o_start[0] = 1040;  // an optional part started inside the mandatory one
  EXPECT_FALSE(tile_job(s).ordered);
  s = stamped_job();
  s.o_end[1] = 1069;  // exit stamped before entry
  EXPECT_FALSE(tile_job(s).ordered);
}

Options smoke(const char* workload, double seconds, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = seconds;
  o.trace = trace;
  const char* dir = std::getenv("PERFBENCH_WORKDIR");
  o.workdir = dir != nullptr ? dir : ".";
  return o;
}

void expect_sane(const Result& r) {
  for (const auto& v : r.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(r.correct());
  EXPECT_GE(r.attempted, 1);
  EXPECT_EQ(r.failed, 0);
  for (const auto& spec : kEndToEnd) {
    EXPECT_EQ(r.values.count(spec.name), 1u) << spec.name;
  }
}

TEST(Smoke, OmsPeriod) {
  const Result r = run_oms_period(smoke("oms_period", 0.1, true));
  expect_sane(r);
  EXPECT_GT(r.values.at("latency_p50_us"), 0.0);
  EXPECT_GT(r.values.at("trading.mandatory_us"), 0.0);
  EXPECT_GT(r.values.at("core.dispatch_us"), 0.0);
}

TEST(Smoke, ShardJournal) {
  const Result r = run_shard_journal(smoke("shard_journal", 1.0, true));
  expect_sane(r);
  EXPECT_GE(r.values.at("shard.recoveries"), 1.0);
  EXPECT_GT(r.values.at("shard.journal_bytes_per_event"), 0.0);
}

}  // namespace
}  // namespace perfbench
