// Absolute-time periodic release clock.
//
// Implements the paper's release pattern: the mandatory thread sleeps until
// its next release in clock_nanosleep(TIMER_ABSTIME) on CLOCK_MONOTONIC.
// Using absolute deadlines avoids cumulative drift; a job that finishes
// after its next release time is detected as an overrun and releases are
// skipped forward (never executed back-to-back to "catch up").
//
// With a release lead the sleep ends `lead` before the release and the
// rest is a busy-wait on the clock: waking from a timer costs ≈10 µs on
// a VM whose idle vCPUs halt, a poll of the vDSO clock ≈20 ns.  The
// release is still never returned before its time.
#pragma once

#include "common/time.hpp"
#include "common/types.hpp"

namespace rtseed::rt {

using common::JobId;
using common::Nanos;

class PeriodicClock {
 public:
  /// Period must be positive.  The first release is `initial_offset` after
  /// start() is called.  `lead` (≥ 0) is how long before each release the
  /// sleep ends and the spin begins; 0 sleeps all the way.
  explicit PeriodicClock(Nanos period, Nanos initial_offset = 0,
                         Nanos lead = 0);

  /// Anchors release 0 at now + initial_offset.
  void start();

  /// Sleeps (then spins, with a lead) until the next release; returns its
  /// absolute time.  Must be called after start().
  Nanos wait_next_release();

  /// Absolute time of the release that wait_next_release() returned last.
  Nanos current_release() const { return current_release_; }
  /// Absolute deadline of the current job (release + period).
  Nanos current_deadline() const { return current_release_ + period_; }
  /// Index of the current job (0-based), counting skipped releases.
  JobId job_index() const { return job_index_; }
  /// Number of releases skipped because the previous job ran past them.
  long overruns() const { return overruns_; }
  /// Number of times the sleep returned before the release time (clock
  /// anomaly, e.g. an interrupted or mis-programmed sleep); each was
  /// answered by re-sleeping, so releases never fired early.
  long clock_anomalies() const { return clock_anomalies_; }

  Nanos period() const { return period_; }

 private:
  /// sleep_until that detects early returns (clock anomalies) and
  /// re-sleeps so no release ever fires before its time.
  void sleep_until_checked(Nanos abs_time);

  Nanos period_;
  Nanos initial_offset_;
  Nanos lead_;
  Nanos next_release_ = 0;
  Nanos current_release_ = 0;
  JobId job_index_ = -1;
  long overruns_ = 0;
  long clock_anomalies_ = 0;
  bool started_ = false;
};

/// Sleeps until the given absolute CLOCK_MONOTONIC time (EINTR-safe).
void sleep_until(Nanos abs_time);

/// Sleeps for the given duration (EINTR-safe).
void sleep_for(Nanos duration);

}  // namespace rtseed::rt
