// EINTR hardening, verified by injection: every blocking primitive must
// absorb spurious returns (the kEintrStorm point fires exactly where a
// real EINTR would surface) without early releases, lost values, or
// distorted timeouts.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/time.hpp"
#include "fault/injector.hpp"
#include "rt/futex.hpp"
#include "rt/periodic_clock.hpp"

namespace rtseed::fault {
namespace {

using common::millis;
using common::monotonic_now;
using common::Nanos;

TEST(FaultTsanEintr, WaitWordUntilRespectsDeadlineUnderStorm) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kEintrStorm, 1.0);  // every wait interrupted
  ScopedInjector scoped(config);

  std::atomic<std::uint32_t> word{0};
  const Nanos start = monotonic_now();
  const bool woken = rt::wait_word_until(word, 0, start + millis(20));
  const Nanos elapsed = monotonic_now() - start;

  EXPECT_FALSE(woken);                   // nothing ever set the word
  EXPECT_GE(elapsed, millis(20));        // storm must not shorten the wait
  EXPECT_LT(elapsed, millis(500));       // ... nor stretch it unboundedly
}

TEST(FaultTsanEintr, WaitWordSeesValueUnderStorm) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kEintrStorm, 1.0);
  config.max_fires_per_point = 100;  // storm, then normal waits resume
  ScopedInjector scoped(config);

  std::atomic<std::uint32_t> word{0};
  std::thread setter([&] {
    rt::sleep_for(millis(10));
    word.store(1, std::memory_order_release);
    rt::wake_word(word, 1);
  });
  const bool woken = rt::wait_word_until(word, 0, monotonic_now() + millis(2000));
  setter.join();
  EXPECT_TRUE(woken);
  EXPECT_EQ(word.load(), 1u);
}

TEST(FaultTsanEintr, UntimedWaitWordSurvivesStorm) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kEintrStorm, 1.0);
  config.max_fires_per_point = 50;
  ScopedInjector scoped(config);

  std::atomic<std::uint32_t> word{0};
  std::thread setter([&] {
    rt::sleep_for(millis(10));
    word.store(1, std::memory_order_release);
    rt::wake_word(word, 1);
  });
  rt::wait_word(word, 0);  // must return despite the interrupted waits
  setter.join();
  EXPECT_EQ(word.load(), 1u);
}

TEST(FaultTsanEintr, PeriodicClockJumpNeverReleasesEarly) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kClockJump, 1.0);
  config.max_fires_per_point = 3;
  config.jump_ns = millis(5);  // sleeps return 5 ms early while firing
  ScopedInjector scoped(config);

  rt::PeriodicClock clock(millis(20), millis(5));
  clock.start();
  for (int n = 0; n < 5; ++n) {
    const Nanos release = clock.wait_next_release();
    // The anomaly loop re-sleeps: a release never fires before its time.
    EXPECT_GE(monotonic_now(), release);
  }
  EXPECT_GE(clock.clock_anomalies(), 1L);
  EXPECT_LE(clock.clock_anomalies(), 3L);  // one per injected early return
}

// The same with a release lead: the early returns land before the spin
// window, are re-slept, and the spin never ends before the release.
TEST(FaultTsanEintr, PeriodicClockJumpWithLeadNeverReleasesEarly) {
  InjectorConfig config;
  config.with_rate(InjectPoint::kClockJump, 1.0);
  config.max_fires_per_point = 3;
  config.jump_ns = millis(5);
  ScopedInjector scoped(config);

  rt::PeriodicClock clock(millis(20), millis(5), common::micros(20));
  clock.start();
  Nanos first = 0;
  Nanos last = 0;
  for (int n = 0; n < 5; ++n) {
    const Nanos release = clock.wait_next_release();
    EXPECT_GE(monotonic_now(), release);
    if (n == 0) first = release;
    last = release;
  }
  // Releases stay on the period grid: 4 periods apart, plus one per
  // release a stall made the clock skip.
  EXPECT_EQ(last - first, (4 + clock.overruns()) * millis(20));
  EXPECT_GE(clock.clock_anomalies(), 1L);
  EXPECT_LE(clock.clock_anomalies(), 3L);
}

}  // namespace
}  // namespace rtseed::fault
