// HdrHistogram unit tests: empty/single-sample edge cases, exact merge of
// per-thread instances, bucket geometry (log-linear, <= ~3.1% relative
// width), and percentile accuracy/monotonicity.  The Histogram suite checks
// the properties every histogram metric relies on — bucket placement,
// bucket bounds, out-of-range samples, percentile estimates, concurrent
// recording — on HdrHistogram, the registry's one histogram type.
#include "obs/hdr_histogram.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rtseed::obs {
namespace {

using common::u64;

TEST(HdrHistogram, EmptyHistogramReadsAsZero) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
  EXPECT_EQ(h.highest_bucket(), 0u);
  EXPECT_FALSE(h.tail_summary().empty());
}

TEST(HdrHistogram, SingleSampleIsExactEverywhere) {
  HdrHistogram h;
  h.record(u64{12345});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 12345u);
  EXPECT_EQ(h.mean(), 12345.0);
  EXPECT_EQ(h.min_value(), 12345u);
  EXPECT_EQ(h.max_value(), 12345u);
  // q = 1 returns the exact max; interior quantiles land in the sample's
  // bucket (midpoint within the bucket's ~3.1% width).
  EXPECT_EQ(h.percentile(1.0), 12345u);
  const u64 p50 = h.percentile(0.5);
  EXPECT_NEAR(static_cast<double>(p50), 12345.0, 12345.0 * 0.04);
}

TEST(HdrHistogram, SmallValuesAreExact) {
  // Indices 0..63 are width-1 buckets: every value below 64 round-trips
  // exactly through bucket geometry.
  for (u64 v = 0; v < 64; ++v) {
    const auto i = HdrHistogram::bucket_index(v);
    EXPECT_EQ(HdrHistogram::bucket_lo(i), v);
    EXPECT_EQ(HdrHistogram::bucket_hi(i), v + 1);
  }
}

TEST(HdrHistogram, BucketGeometryCoversAndStaysNarrow) {
  const u64 probes[] = {0,           1,    63,    64,       65,
                        100,         1000, 12345, 1u << 20, (1u << 20) + 7,
                        1000000000u, u64{1} << 40, u64{1} << 60};
  for (const u64 v : probes) {
    const auto i = HdrHistogram::bucket_index(v);
    ASSERT_LT(i, HdrHistogram::kNumBuckets) << v;
    EXPECT_LE(HdrHistogram::bucket_lo(i), v) << v;
    EXPECT_LT(v, HdrHistogram::bucket_hi(i)) << v;
    // Log-linear promise: bucket width <= value / 32 once past the exact
    // range (32 sub-buckets per octave).
    if (v >= 64) {
      const u64 width = HdrHistogram::bucket_hi(i) - HdrHistogram::bucket_lo(i);
      EXPECT_LE(width, v / 32 + 1) << v;
    }
  }
  // Indices are monotone in the value.
  u64 prev = 0;
  for (u64 v = 1; v < (1u << 16); v = v * 2 + 1) {
    const auto i = HdrHistogram::bucket_index(v);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(HdrHistogram, PercentilesAreMonotoneAndTight) {
  HdrHistogram h;
  for (u64 v = 1; v <= 10000; ++v) h.record(v);
  const u64 p50 = h.percentile(0.50);
  const u64 p90 = h.percentile(0.90);
  const u64 p99 = h.percentile(0.99);
  const u64 p999 = h.percentile(0.999);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  // Interior quantiles are bucket midpoints: p99.9 may exceed the exact
  // max by up to the bucket's ~3.1% width, never more.
  EXPECT_LE(static_cast<double>(p999),
            static_cast<double>(h.max_value()) * 1.04);
  EXPECT_EQ(h.percentile(1.0), 10000u);
  // Uniform 1..10000: quantiles within the documented ~3.1% bucket error.
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 5000.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 9900.0 * 0.04);
}

TEST(HdrHistogram, NegativeDoublesClampToZero) {
  HdrHistogram h;
  h.record(-5.0);
  h.record(2.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), 2u);
}

TEST(HdrHistogram, MergeIsExact) {
  // Per-thread histograms share bucket geometry, so merging loses nothing:
  // counts, sums, extremes, and every percentile match a single histogram
  // fed the union of the samples.
  HdrHistogram a, b, merged_reference;
  for (u64 v = 1; v <= 500; ++v) {
    a.record(v);
    merged_reference.record(v);
  }
  for (u64 v = 100000; v <= 100500; ++v) {
    b.record(v);
    merged_reference.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), merged_reference.count());
  EXPECT_EQ(a.sum(), merged_reference.sum());
  EXPECT_EQ(a.min_value(), merged_reference.min_value());
  EXPECT_EQ(a.max_value(), merged_reference.max_value());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.percentile(q), merged_reference.percentile(q)) << q;
  }
}

TEST(HdrHistogram, MergeEmptyIsNoop) {
  HdrHistogram a, empty;
  a.record(u64{7});
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min_value(), 7u);
  EXPECT_EQ(a.max_value(), 7u);
}

TEST(HdrHistogram, ConcurrentRecordLosesNothing) {
  // record() is a handful of relaxed RMWs — hammer it from several threads
  // and check the totals are exact.
  HdrHistogram h;
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (u64 v = 0; v < kPerThread; ++v) {
        h.record(static_cast<u64>(t) * kPerThread + v);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), kThreads * kPerThread - 1);
}

TEST(Histogram, RecordsIntoCorrectBuckets) {
  HdrHistogram h;
  h.record(u64{5});      // exact range: its own width-1 bucket
  h.record(u64{1000});   // log-linear range
  h.record(u64{12345});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(HdrHistogram::bucket_index(1000)), 1u);
  EXPECT_EQ(h.bucket(HdrHistogram::bucket_index(12345)), 1u);
  u64 in_buckets = 0;
  for (common::usize i = 0; i < h.highest_bucket(); ++i) {
    in_buckets += h.bucket(i);
  }
  EXPECT_EQ(in_buckets, 3u);
}

TEST(Histogram, UnderOverflow) {
  // No configured range: a sample below zero lands in the lowest bucket and
  // the largest u64 lands in the top bucket — neither is dropped.
  HdrHistogram h;
  h.record(-0.1);
  h.record(1.0);
  const u64 top = ~u64{0};
  h.record(top);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  const auto top_index = HdrHistogram::bucket_index(top);
  ASSERT_LT(top_index, HdrHistogram::kNumBuckets);
  EXPECT_EQ(top_index, HdrHistogram::kNumBuckets - 1);
  EXPECT_EQ(h.bucket(top_index), 1u);
  EXPECT_LE(HdrHistogram::bucket_lo(top_index), top);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), top);
  EXPECT_EQ(h.highest_bucket(), HdrHistogram::kNumBuckets);
}

TEST(Histogram, BucketBounds) {
  // Width-1 buckets up to 64, then 32 buckets per octave of width 2^t.
  EXPECT_EQ(HdrHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(HdrHistogram::bucket_hi(0), 1u);
  EXPECT_EQ(HdrHistogram::bucket_lo(63), 63u);
  EXPECT_EQ(HdrHistogram::bucket_hi(63), 64u);
  EXPECT_EQ(HdrHistogram::bucket_lo(64), 64u);
  EXPECT_EQ(HdrHistogram::bucket_hi(64), 66u);
  EXPECT_EQ(HdrHistogram::bucket_lo(96), 128u);
  EXPECT_EQ(HdrHistogram::bucket_hi(96), 132u);
  // Buckets tile the line: each starts where the previous one ends.
  for (common::usize i = 1; i < 40 * HdrHistogram::kSubBucketCount; ++i) {
    ASSERT_EQ(HdrHistogram::bucket_lo(i), HdrHistogram::bucket_hi(i - 1))
        << i;
  }
}

TEST(Histogram, PercentileEstimate) {
  HdrHistogram h;
  for (u64 v = 0; v < 100; ++v) h.record(v);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.9)), 89.0, 2.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.0)), 0.0, 1.0);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  HdrHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<u64>(i % 4));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<u64>(kThreads * kPerThread));
  u64 in_buckets = 0;
  for (common::usize i = 0; i < h.highest_bucket(); ++i) {
    in_buckets += h.bucket(i);
  }
  EXPECT_EQ(in_buckets, h.count());
  for (common::usize i = 0; i < 4; ++i) {
    EXPECT_EQ(h.bucket(i), static_cast<u64>(kThreads * kPerThread / 4)) << i;
  }
}

}  // namespace
}  // namespace rtseed::obs
