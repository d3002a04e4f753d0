// Effective QoS vs. the number of parallel optional parts — the paper's
// closing guidance made computable:
//
//   "traders should choose an appropriate number of parallel optional
//    parts by considering the overhead associated with beginning and
//    ending the processes" (§VII)
//
// QoS delivered by a job is the total optional execution obtained.  More
// parts multiply throughput (parallel refinement) but shrink the usable
// window, because Δb (beginning, O(np)) delays the parts' start and Δe
// (ending, O(np)) must finish before the wind-up part:
//
//   usable(np)    = (OD − m) − Δb(np) − Δe(np)          per job
//   per-part speed = 1 / (1 + a_bg·bg + a_own·own)       (SMT contention)
//   qos(np)        = Σ_parts usable(np) · speed(part)
//
// The resulting curve rises (parallelism) then falls (overhead + SMT
// crowding): an interior optimum np*, which depends on the assignment
// policy and background load exactly as the paper predicts (one-by-one
// has the best per-part speed but the worst Δe under load).
#pragma once

#include "common/time.hpp"
#include "sim/overhead_model.hpp"

namespace rtseed::sim {

struct QosScenario {
  common::Topology topology = common::Topology::xeon_phi_3120a();
  core::AssignmentPolicy policy = core::AssignmentPolicy::kOneByOne;
  LoadKind load = LoadKind::kNone;
  /// The paper's task: T = 1 s, m = w = 250 ms -> OD − m = 500 ms window.
  common::Nanos optional_window = common::millis(500);
};

class QosModel {
 public:
  explicit QosModel(ContentionParams params = {}) : model_(params) {}

  /// Mean usable optional window per part after begin/end overheads, in
  /// microseconds (clamped at 0 when overheads eat the whole window).
  double usable_window_us(const QosScenario& scenario, int np,
                          common::Rng& rng) const;

  /// Total effective QoS (part-seconds of refinement per job, in
  /// microseconds of equivalent single-thread work) for np parts.
  double effective_qos_us(const QosScenario& scenario, int np,
                          common::Rng& rng) const;

  /// np in [1, max_np] maximizing effective_qos_us.
  int best_np(const QosScenario& scenario, int max_np,
              common::Rng& rng) const;

 private:
  /// Per-part execution speed under SMT contention (1 = full speed).
  double part_speed(const QosScenario& scenario, int np, int part) const;

  OverheadModel model_;
};

}  // namespace rtseed::sim
