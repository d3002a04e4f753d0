// Calibrated overhead model of RT-Seed on a many-core machine.
//
// This regenerates the paper's Figs. 10–13 at full Xeon Phi scale
// (np up to 228) on hosts that do not have 228 hardware threads.  It is a
// *mechanistic* model, not a curve fit: each Δ is composed from the same
// O(npᵢ) operation sequence the middleware executes (one cond_signal per
// part, one timer interrupt + context restore + completion signal per
// part, ...), with per-operation costs scaled by the load and SMT
// contention rules in contention.hpp.  Magnitudes are calibrated to the
// paper's reported ranges; shapes follow from the mechanism.
#pragma once

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/topology.hpp"
#include "core/assignment.hpp"
#include "sim/contention.hpp"

namespace rtseed::sim {

enum class OverheadKind {
  kBeginMandatory,  ///< Δm (Fig. 10)
  kSwitch,          ///< Δs (Fig. 11)
  kBeginOptional,   ///< Δb (Fig. 12)
  kEndOptional,     ///< Δe (Fig. 13)
};

const char* overhead_kind_name(OverheadKind kind);

struct OverheadScenario {
  common::Topology topology = common::Topology::xeon_phi_3120a();
  core::AssignmentPolicy policy = core::AssignmentPolicy::kOneByOne;
  LoadKind load = LoadKind::kNone;
  int num_optional_parts = 4;
  int num_tasks = 1;  ///< Δm scales with the task count (paper §V-B)
};

class OverheadModel {
 public:
  explicit OverheadModel(ContentionParams params = {}) : params_(params) {}

  /// One job's overhead sample in microseconds (deterministic in rng).
  double sample_us(OverheadKind kind, const OverheadScenario& scenario,
                   common::Rng& rng) const;

  /// Mean over `jobs` jobs (the paper reports 100-job measurements).
  common::Summary measure_us(OverheadKind kind,
                             const OverheadScenario& scenario, int jobs,
                             common::Rng& rng) const;

  const ContentionParams& params() const { return params_; }

 private:
  double noise(common::Rng& rng) const;

  /// Per-part SMT contention factor for ending part `j`.
  double end_contention_factor(const OverheadScenario& scenario,
                               int part_index) const;

  ContentionParams params_;
};

}  // namespace rtseed::sim
