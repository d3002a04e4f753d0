// Per-job stamps of oms_period and how they tile a job.
//
// The bench's wrappers around OmsTask's three parts stamp CLOCK_MONOTONIC
// (the runtime's clock) at each entry and exit.  A job's response, from
// its release to the wind-up wrapper's return, splits into core gaps
// (release lag, dispatch, holes between optional parts, collection) and
// the spans spent in trading code and the egress drain.
#pragma once

#include "bench.hpp"

namespace perfbench {

inline constexpr int kBands = 3;

struct JobStamps {
  Nanos release = 0;
  Nanos deadline = 0;
  Nanos optional_deadline = 0;
  Nanos m_start = 0;
  Nanos m_end = 0;
  Nanos o_start[kBands] = {};  ///< 0 = the part never started (discarded)
  Nanos o_end[kBands] = {};    ///< 0 = the part was cut (terminated)
  Nanos w_start = 0;
  Nanos w_end = 0;
  Nanos done = 0;  ///< wind-up wrapper return, after the egress drain
};

struct JobTiling {
  Nanos release_lag = 0;  ///< core: release -> mandatory entry
  Nanos mandatory = 0;    ///< trading
  Nanos dispatch = 0;     ///< core: mandatory exit -> first optional entry
  Nanos optional = 0;     ///< trading: union of the optional parts
  Nanos holes = 0;        ///< core: gaps between optional parts
  Nanos collect = 0;      ///< core: last optional exit -> wind-up entry
  Nanos windup = 0;       ///< trading
  Nanos drain = 0;        ///< shard: egress exec-report drain
  Nanos response = 0;     ///< release -> done
  /// The stamps are in order: each part starts after the one before it
  /// ends, and every optional part lies between mandatory exit and
  /// wind-up entry.  A segment is meaningful only when this holds.
  bool ordered = false;
};

/// Exit of started optional part `k`: its stamp, or for a part cut by its
/// timer (no exit stamp) the optional deadline or wind-up entry, whichever
/// is earlier.
inline Nanos optional_end(const JobStamps& s, int k) {
  if (s.o_end[k] != 0) return s.o_end[k];
  const Nanos cut = s.optional_deadline < s.w_start ? s.optional_deadline
                                                     : s.w_start;
  return cut > s.o_start[k] ? cut : s.o_start[k];
}

/// Splits a fully stamped job into its segments.
JobTiling tile_job(const JobStamps& s);

}  // namespace perfbench
