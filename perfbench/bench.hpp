// perfbench — the repo's end-to-end benchmark (README.md in this
// directory describes the workloads, the metrics and how to rerun).
//
// Every layer is timed from OUTSIDE: the workloads wrap their own calls
// into the public entry points of core, trading, lob and shard, so the
// benchmark measures any later version of those layers unchanged.
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "lob/flow.hpp"

namespace perfbench {

using rtseed::common::Nanos;
using rtseed::common::u32;
using rtseed::common::u64;
using rtseed::common::usize;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics + Chrome trace instead of end-to-end.
  bool trace = false;
  /// Journals and the trace export are written below this directory.
  std::string workdir = ".";
  /// Provenance of the measured sources (git commit or tree hash).
  std::string commit = "unknown";
};

/// One metric every workload reports under the same name.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  /// What it means (end-to-end) or which end-to-end metric it should
  /// move on which workload (per-layer).
  const char* note;
};

/// The end-to-end metrics (untraced run) and per-layer metrics (traced
/// run).  BENCHMARK.json lists exactly these names; test_bench.py keeps
/// the two in step.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run produced.
struct Result {
  long attempted = 0;
  long failed = 0;
  /// Violated output checks; any entry makes the run incorrect.
  std::vector<std::string> violations;
  /// Metric values by name (kEndToEnd or kPerLayer names).
  std::map<std::string, double> values;
  /// Workload-specific readings printed for people, in order:
  /// {name, formatted value with unit}.
  std::vector<std::pair<std::string, std::string>> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void note(const std::string& name, double value, const char* unit);
  bool correct() const { return violations.empty(); }
};

// ---- statistics ----------------------------------------------------------

/// Percentile `p` in [0, 1], linearly interpolated between the closest
/// ranks (NumPy's default).  0 for an empty input.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const usize lo = static_cast<usize>(rank);
  const usize hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Length covered by the union of the intervals [first, second) in
/// `parts` (sorted in place by start).
template <typename Range>
Nanos union_length(Range&& parts) {
  std::sort(std::begin(parts), std::end(parts));
  Nanos covered = 0;
  bool open = false;
  Nanos run_lo = 0;
  Nanos run_hi = 0;
  for (const auto& [lo, hi] : parts) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  return open ? covered + (run_hi - run_lo) : 0;
}

/// Samples strictly above percentile `p` of `n` samples; a tail reading
/// is reported only when at least ten samples lie beyond it.
inline long samples_beyond(usize n, double p) {
  return static_cast<long>(static_cast<double>(n) * (1.0 - p));
}

inline double to_us(Nanos d) { return static_cast<double>(d) / 1e3; }
inline double to_ms(Nanos d) { return static_cast<double>(d) / 1e6; }

// ---- the lob layer alone -------------------------------------------------

/// ns per event of the seeded market stream (`seed`, `book`, `flow`;
/// at most 2^19 of its first `events` events) replayed into a standalone
/// lob::OrderManager::apply_flow.
double replay_apply_flow_ns(u64 seed, const rtseed::lob::BookConfig& book,
                            const rtseed::lob::FlowConfig& flow, u64 events);

// ---- process CPU ---------------------------------------------------------

/// User + system CPU of this process and of its reaped children, and the
/// context switches of this process.
struct CpuUsage {
  Nanos self_cpu = 0;
  Nanos children_cpu = 0;
  long voluntary_switches = 0;
  long involuntary_switches = 0;
};
CpuUsage cpu_usage();

/// CPU time of the calling thread.
Nanos thread_cpu_now();

// ---- host provenance -----------------------------------------------------

struct Host {
  int nproc = 0;
  std::string cpu_model;
  std::string kernel;
  /// SCHED_FIFO denied to a probe thread (the runtimes then degrade to
  /// best-effort scheduling).
  bool rt_degraded = false;
  /// Filesystem type of the directory holding the shard journals.
  std::string journal_fs;
};
Host probe_host(const std::string& workdir);

// ---- workloads -----------------------------------------------------------

Result run_oms_period(const Options& options);
Result run_shard_journal(const Options& options);

}  // namespace perfbench
