// Experiment drivers shared by the figure-reproduction benchmarks.
//
// Each of Figs. 10-13 sweeps the number of parallel optional parts
// np ∈ {4, 8, 16, 32, 57, 114, 171, 228} for the three assignment policies
// under the three background loads, averaging 100 jobs per point (§V).
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/overhead_model.hpp"
#include "sim/sweep.hpp"

namespace rtseed::sim {

struct FigureConfig {
  OverheadKind kind = OverheadKind::kBeginMandatory;
  common::Topology topology = common::Topology::xeon_phi_3120a();
  std::vector<int> np_set = {4, 8, 16, 32, 57, 114, 171, 228};
  int jobs = 100;           ///< the paper runs 100 jobs of τ1
  common::u64 seed = 2014;  ///< deterministic experiments
  /// Sweep parallelism (see SweepOptions::threads); every cell's RNG is
  /// seeded from (seed, load, policy, np), so any thread count produces
  /// bit-identical FigureData.
  int sweep_threads = 0;
  ContentionParams params;
};

struct FigureSubplot {
  LoadKind load = LoadKind::kNone;
  /// series[policy].y[k] = mean overhead in us at np_set[k].
  std::vector<common::Series> series;
};

struct FigureData {
  OverheadKind kind;
  std::vector<double> np;  ///< x-axis
  std::vector<FigureSubplot> subplots;  ///< no-load, cpu, cpu-memory
};

/// Runs the full sweep for one figure.
FigureData run_figure(const FigureConfig& config);

/// Prints a figure in both table and gnuplot-series form.
void print_figure(const FigureData& data, const std::string& title);

/// Shape checks the paper's text asserts about each figure; returns a list
/// of violated properties (empty = all hold).  Used by both tests and the
/// benchmark binaries' self-check footer.
std::vector<std::string> check_figure_shape(const FigureData& data);

}  // namespace rtseed::sim
