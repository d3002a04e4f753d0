// Per-job measurement record.  Produced on the mandatory thread, moved off
// the real-time path through an SPSC ring, aggregated by the Runtime.
//
// The four overheads of the paper's evaluation (§V-B, Fig. 9) derive from
// these timestamps:
//   Δm = mandatory_start − release            (begin mandatory part)
//   Δb = signal_end − signal_start            (begin parallel optional parts:
//                                              the pthread_cond_signal loop)
//   Δs = first_optional_start − signal_end    (switch mandatory→optional)
//   Δe = windup_start − optional_deadline     (end parallel optional parts;
//                                              meaningful when they overran)
#pragma once

#include "common/time.hpp"
#include "common/types.hpp"

namespace rtseed::core {

using common::JobId;
using common::Nanos;

struct JobRecord {
  JobId job = 0;
  Nanos release = 0;
  Nanos deadline = 0;
  Nanos optional_deadline = 0;

  Nanos mandatory_start = 0;
  Nanos mandatory_end = 0;
  Nanos signal_start = 0;         ///< 0 when optionals were discarded
  Nanos signal_end = 0;
  Nanos first_optional_start = 0; ///< 0 when none started
  Nanos windup_start = 0;
  Nanos windup_end = 0;

  int optional_completed = 0;
  int optional_terminated = 0;
  int optional_discarded = 0;
  /// Optional parts this job was not allowed to start — withheld by the
  /// overload circuit breaker or by the budget-overrun policy (distinct
  /// from optional_discarded, where the MANDATORY part ran past the OD).
  int optional_shed = 0;

  bool optionals_ran = false;
  bool deadline_met = false;
  /// Budget watchdog verdicts (DESIGN.md §9.2): the part ran past
  /// WCET × factor + slack.
  bool mandatory_overrun = false;
  bool windup_overrun = false;
  /// The job was cut short at a checkpoint by OverrunPolicy::kAbortJob or
  /// kDemoteThread (its wind-up part never ran).
  bool aborted = false;

  Nanos delta_m() const { return mandatory_start - release; }
  Nanos delta_b() const {
    return optionals_ran ? signal_end - signal_start : 0;
  }
  /// The switch to the first optional part; 0 when that part started
  /// before the signal loop ended (a worker polling for its command
  /// pays no switch).
  Nanos delta_s() const {
    return (optionals_ran && first_optional_start > signal_end)
               ? first_optional_start - signal_end
               : 0;
  }
  /// Only meaningful when at least one optional part overran its deadline.
  Nanos delta_e() const {
    return (optionals_ran && optional_terminated > 0)
               ? windup_start - optional_deadline
               : 0;
  }
};

/// Task-level state transitions, mirrored into the user-space ReadyQueues
/// (paper Figs. 4/5) when an observer is attached.
enum class TaskTransition {
  kReleased,           ///< job released: task enters RTQ (mandatory part)
  kOptionalsStarted,   ///< mandatory done: task's optionals enter NRTQ,
                       ///< mandatory thread sleeps until OD (SQ)
  kOptionalsDiscarded, ///< mandatory ran past OD: straight to wind-up
  kWindupStarted,      ///< OD expired: task re-enters RTQ (wind-up part)
  kJobFinished,        ///< wind-up done: task sleeps until next release (SQ)
};

}  // namespace rtseed::core
