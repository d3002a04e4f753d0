#include "rt/periodic_clock.hpp"

#include <gtest/gtest.h>

namespace rtseed::rt {
namespace {

using common::micros;
using common::millis;
using common::monotonic_now;
using common::Nanos;

TEST(SleepUntil, PastDeadlineReturnsImmediately) {
  const Nanos start = monotonic_now();
  sleep_until(start - common::seconds(1));
  EXPECT_LT(monotonic_now() - start, millis(50));
}

TEST(SleepFor, ApproximatelyAccurate) {
  const Nanos start = monotonic_now();
  sleep_for(millis(20));
  const Nanos elapsed = monotonic_now() - start;
  EXPECT_GE(elapsed, millis(19));
  EXPECT_LT(elapsed, millis(200));  // generous: container jitter
}

TEST(PeriodicClock, ReleasesAreSpacedByPeriod) {
  PeriodicClock clock(millis(20));
  clock.start();
  const Nanos r0 = clock.wait_next_release();
  const Nanos r1 = clock.wait_next_release();
  const Nanos r2 = clock.wait_next_release();
  EXPECT_EQ(r1 - r0, millis(20));
  EXPECT_EQ(r2 - r1, millis(20));
  EXPECT_EQ(clock.job_index(), 2);
  EXPECT_EQ(clock.overruns(), 0);
}

TEST(PeriodicClock, DeadlineIsReleasePlusPeriod) {
  PeriodicClock clock(millis(25));
  clock.start();
  const Nanos r = clock.wait_next_release();
  EXPECT_EQ(clock.current_release(), r);
  EXPECT_EQ(clock.current_deadline(), r + millis(25));
}

TEST(PeriodicClock, InitialOffsetDelaysFirstRelease) {
  PeriodicClock clock(millis(10), millis(30));
  const Nanos before = monotonic_now();
  clock.start();
  const Nanos r0 = clock.wait_next_release();
  EXPECT_GE(r0 - before, millis(29));
}

TEST(PeriodicClock, SkipsMissedReleasesInsteadOfBursting) {
  PeriodicClock clock(millis(10));
  clock.start();
  clock.wait_next_release();  // job 0
  sleep_for(millis(35));      // run past ~3 releases
  const Nanos before = monotonic_now();
  const Nanos r = clock.wait_next_release();
  // The next release must be in the future relative to the overrun end,
  // not a stale past release executed back-to-back.
  EXPECT_GE(r, before - millis(10));
  EXPECT_GT(clock.overruns(), 0);
  EXPECT_GT(clock.job_index(), 1);  // skipped indices are counted
}

TEST(PeriodicClock, WaitReturnsNonDecreasingReleases) {
  PeriodicClock clock(millis(5));
  clock.start();
  Nanos prev = 0;
  for (int i = 0; i < 5; ++i) {
    const Nanos r = clock.wait_next_release();
    EXPECT_GT(r, prev);
    prev = r;
  }
}

// With a lead the clock sleeps until release − lead and spins the rest:
// it must still never return before the release, and the releases it
// returns stay exactly one period apart (a host stall that skips a
// release makes that gap a whole number of periods, counted in
// overruns()).
TEST(PeriodicClock, LeadNeverReturnsBeforeTheRelease) {
  constexpr Nanos kPeriod = millis(2);
  PeriodicClock clock(kPeriod, millis(1), micros(20));
  clock.start();
  constexpr int kReleases = 20;
  Nanos first = 0;
  Nanos prev = 0;
  for (int i = 0; i < kReleases; ++i) {
    const Nanos r = clock.wait_next_release();
    EXPECT_GE(monotonic_now(), r) << "release " << i;
    if (i == 0) first = r;
    if (i > 0) {
      EXPECT_EQ((r - prev) % kPeriod, 0) << "release " << i;
    }
    prev = r;
  }
  EXPECT_EQ(prev - first, (kReleases - 1 + clock.overruns()) * kPeriod);
  EXPECT_EQ(clock.clock_anomalies(), 0);
}

}  // namespace
}  // namespace rtseed::rt
