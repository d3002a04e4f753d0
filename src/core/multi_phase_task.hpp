// Runtime for the PRACTICAL imprecise computation model — multiple
// mandatory parts with an optional phase after each (the paper's stated
// future work, ref [33]), scheduled by RMWP-MP (sched/mrmwp.hpp).
//
// Per job, the mandatory thread runs
//
//   segment 0 → phase 0 (parallel, ✂ OD⁰) → segment 1 → phase 1 (✂ OD¹)
//             → ... → final segment → sleep until next release
//
// reusing the same OptionalPool protocol as ImpreciseTask: each phase's
// parts are signalled individually, bounded by that phase's offline
// optional deadline, and a phase whose preceding segment overran its ODᵏ
// is discarded outright (never signalled).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fixed_vector.hpp"
#include "common/inplace_function.hpp"
#include "common/spsc_ring.hpp"
#include "common/topology.hpp"
#include "core/assignment.hpp"
#include "core/imprecise_task.hpp"
#include "core/optional_pool.hpp"
#include "sched/mrmwp.hpp"
#include "rt/thread.hpp"

namespace rtseed::core {

struct MultiPhaseCallbacks {
  /// Mandatory segment `segment` (0-based).
  common::InplaceFunction<void(const JobContext&, int segment), 64> mandatory;
  /// Part `part` of optional phase `phase`; same constraints as the
  /// single-phase optional callback (pure CPU-bound, abandonable).
  common::InplaceFunction<void(const JobContext&, int phase, int part,
                               StopToken&),
                          64>
      optional;
};

struct MultiPhaseConfig {
  sched::MultiPhaseTaskParams params;
  MultiPhaseCallbacks callbacks;
  long num_jobs = 0;  ///< 0 = run until stop()
};

struct MultiPhasePlacement {
  int processor = 0;
  int mandatory_priority = 0;
  int optional_priority = 0;
  /// ODᵏ per phase, relative to release (from analyze_mrmwp).
  std::vector<Nanos> optional_deadline_offsets;
};

/// Builds the single-task placement from the RMWP-MP analysis.
/// FAILED_PRECONDITION when the task is not schedulable alone.
common::Expected<MultiPhasePlacement> plan_single_multi_phase(
    const sched::MultiPhaseTaskParams& params);

struct PhaseOutcome {
  int completed = 0;
  int terminated = 0;
  int discarded = 0;
};

inline constexpr int kMaxPhases = 8;

struct MultiPhaseJobRecord {
  common::JobId job = 0;
  Nanos release = 0;
  Nanos deadline = 0;
  Nanos finished = 0;
  bool deadline_met = false;
  common::FixedVector<PhaseOutcome, kMaxPhases> phases;
};

class MultiPhaseTask {
 public:
  MultiPhaseTask(MultiPhaseConfig config, MultiPhasePlacement placement,
                 TaskRuntimeOptions options, const common::Topology& topology);

  MultiPhaseTask(const MultiPhaseTask&) = delete;
  MultiPhaseTask& operator=(const MultiPhaseTask&) = delete;
  ~MultiPhaseTask();

  common::Status start();
  void stop();
  void wait_finished();

  const MultiPhaseConfig& config() const { return config_; }

  std::vector<MultiPhaseJobRecord> drain_records();
  long callback_errors() const {
    return callback_errors_.load(std::memory_order_relaxed) +
           pool_->body_errors();
  }

 private:
  void mandatory_loop();
  void run_one_job(common::JobId job_index, Nanos release);
  void mark_finished();

  const MultiPhaseConfig config_;
  const MultiPhasePlacement placement_;
  const TaskRuntimeOptions options_;
  const common::Topology& topology_;

  std::unique_ptr<OptionalPool> pool_;
  std::unique_ptr<rt::RtThread> mandatory_thread_;
  std::atomic<int> current_phase_{0};

  std::atomic<bool> active_{false};
  /// Wait word for wait_finished (rt::wait_word fast path): 0 = running,
  /// 1 = finished.
  std::atomic<std::uint32_t> finished_word_{0};
  bool started_ = false;

  common::SpscRing<MultiPhaseJobRecord> records_;
  std::atomic<common::u64> records_dropped_{0};
  std::atomic<long> callback_errors_{0};
};

}  // namespace rtseed::core
