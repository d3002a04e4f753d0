// Interactive-ish exploration of the assignment-policy trade-off the paper
// closes on: "the one by one assignment policy suffers the highest
// overhead [but] has the potential to improve QoS ... traders should
// choose an appropriate number of parallel optional parts by considering
// the overhead associated with beginning and ending the processes."
//
// For a requested topology and np (defaults: Xeon Phi 3120A, 57), prints
// the placement map, begin+end overhead estimates per policy/load, and
// the resulting usable optional window for the paper's task.
//
// Usage:  policy_explorer [np] [cores] [smt]
#include <cstdio>
#include <cstdlib>

#include "common/table.hpp"
#include "common/time.hpp"
#include "sim/overhead_model.hpp"

using namespace rtseed;

int main(int argc, char** argv) {
  const int np = argc > 1 ? std::atoi(argv[1]) : 57;
  const int cores = argc > 2 ? std::atoi(argv[2]) : 57;
  const int smt = argc > 3 ? std::atoi(argv[3]) : 4;
  if (np <= 0 || cores <= 0 || smt <= 0) {
    std::fprintf(stderr, "usage: %s [np] [cores] [smt]\n", argv[0]);
    return 2;
  }
  const auto topology = common::Topology::uniform(cores, smt);
  std::printf("=== policy explorer: np=%d on %s ===\n\n", np,
              topology.to_string().c_str());

  // Placement summary per policy.
  for (auto policy :
       {core::AssignmentPolicy::kOneByOne, core::AssignmentPolicy::kTwoByTwo,
        core::AssignmentPolicy::kAllByAll}) {
    const auto counts = core::parts_per_core(topology, policy, np);
    int used_cores = 0, max_per_core = 0;
    for (int c : counts) {
      if (c > 0) ++used_cores;
      max_per_core = std::max(max_per_core, c);
    }
    std::printf("%-11s: %d cores used, <=%d parts/core\n",
                core::assignment_policy_name(policy), used_cores,
                max_per_core);
  }

  // Overhead estimates and usable optional window for the paper's task
  // (T = 1 s, OD = 750 ms after release, mandatory ends at 250 ms).
  const sim::OverheadModel model;
  std::printf("\n");
  common::Table table({"load", "policy", "begin db[us]", "end de[us]",
                       "window lost", "usable window"});
  for (auto load :
       {sim::LoadKind::kNone, sim::LoadKind::kCpu, sim::LoadKind::kCpuMemory}) {
    for (auto policy : {core::AssignmentPolicy::kOneByOne,
                        core::AssignmentPolicy::kTwoByTwo,
                        core::AssignmentPolicy::kAllByAll}) {
      sim::OverheadScenario scenario;
      scenario.topology = topology;
      scenario.policy = policy;
      scenario.load = load;
      scenario.num_optional_parts = np;
      common::Rng rng(42);
      const double db =
          model.measure_us(sim::OverheadKind::kBeginOptional, scenario, 50,
                           rng)
              .mean;
      const double de =
          model.measure_us(sim::OverheadKind::kEndOptional, scenario, 50, rng)
              .mean;
      const auto lost = static_cast<common::Nanos>((db + de) * 1000.0);
      const common::Nanos window = common::millis(500);  // OD - m = 500 ms
      table.add_row({sim::load_kind_name(load),
                     core::assignment_policy_name(policy),
                     common::format_double(db, 1),
                     common::format_double(de, 1),
                     common::format_duration(lost),
                     common::format_duration(window - lost)});
    }
  }
  table.print();
  std::printf(
      "\nreading: one-by-one maximizes per-part cache/SMT headroom (QoS per "
      "part) but pays the highest begin/end overhead under load; pick np "
      "and the policy so the lost window stays small against OD - m.\n");
  return 0;
}
