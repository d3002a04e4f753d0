// Property tests over the full (policy × np × topology) grid, using
// parameterized gtest.  These pin down the invariants every assignment
// policy must satisfy, beyond the exact Fig. 8 cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core/assignment.hpp"

namespace rtseed::core {
namespace {

struct GridParam {
  AssignmentPolicy policy;
  int np;
  int cores;
  int smt;
};

std::string param_name(const ::testing::TestParamInfo<GridParam>& info) {
  const auto& p = info.param;
  std::string name = assignment_policy_name(p.policy);
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_np" + std::to_string(p.np) + "_c" +
         std::to_string(p.cores) + "x" + std::to_string(p.smt);
}

class AssignmentGrid : public ::testing::TestWithParam<GridParam> {
 protected:
  common::Topology topology() const {
    return common::Topology::uniform(GetParam().cores, GetParam().smt);
  }
};

TEST_P(AssignmentGrid, EveryPartGetsAValidCpu) {
  const auto topo = topology();
  const auto cpus = assign_optional_parts(topo, GetParam().policy,
                                          GetParam().np);
  ASSERT_EQ(cpus.size(), static_cast<size_t>(GetParam().np));
  for (auto cpu : cpus) EXPECT_TRUE(topo.valid_cpu(cpu));
}

TEST_P(AssignmentGrid, NoHardwareThreadReusedBeforeAllAreUsed) {
  // As long as np <= total hardware threads, every part gets its own.
  const auto topo = topology();
  const int np = std::min(GetParam().np, topo.num_cpus());
  const auto cpus = assign_optional_parts(topo, GetParam().policy, np);
  std::map<common::CpuId, int> uses;
  for (int j = 0; j < np; ++j) ++uses[cpus[static_cast<size_t>(j)]];
  for (const auto& [cpu, count] : uses) {
    EXPECT_EQ(count, 1) << "cpu " << cpu;
  }
}

TEST_P(AssignmentGrid, PerCoreCountsSumToNp) {
  const auto topo = topology();
  const auto counts = parts_per_core(topo, GetParam().policy, GetParam().np);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, GetParam().np);
}

TEST_P(AssignmentGrid, PerCoreCountsNeverExceedWrapBound) {
  // Each core holds at most ceil(np / cores) parts... for one-by-one;
  // generally at most smt * ceil(np / cpus) after wrap-around.
  const auto topo = topology();
  const auto counts = parts_per_core(topo, GetParam().policy, GetParam().np);
  const int rounds = (GetParam().np + topo.num_cpus() - 1) / topo.num_cpus();
  for (int c : counts) {
    EXPECT_LE(c, topo.smt_per_core() * rounds);
  }
}

TEST_P(AssignmentGrid, DeterministicMapping) {
  const auto topo = topology();
  const auto a = assign_optional_parts(topo, GetParam().policy, GetParam().np);
  const auto b = assign_optional_parts(topo, GetParam().policy, GetParam().np);
  EXPECT_EQ(a, b);
}

TEST_P(AssignmentGrid, OneByOneSpreadsWidest) {
  // Among the three policies, one-by-one uses the most cores (>= others)
  // and all-by-all the fewest — the QoS-vs-overhead trade-off the paper
  // closes on.
  const auto topo = topology();
  auto cores_used = [&](AssignmentPolicy policy) {
    const auto counts = parts_per_core(topo, policy, GetParam().np);
    int used = 0;
    for (int c : counts) {
      if (c > 0) ++used;
    }
    return used;
  };
  const int one = cores_used(AssignmentPolicy::kOneByOne);
  const int two = cores_used(AssignmentPolicy::kTwoByTwo);
  const int all = cores_used(AssignmentPolicy::kAllByAll);
  EXPECT_GE(one, two);
  EXPECT_GE(two, all);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSweep, AssignmentGrid,
    ::testing::Values(
        // The paper's np set on the Xeon Phi topology.
        GridParam{AssignmentPolicy::kOneByOne, 4, 57, 4},
        GridParam{AssignmentPolicy::kOneByOne, 32, 57, 4},
        GridParam{AssignmentPolicy::kOneByOne, 171, 57, 4},
        GridParam{AssignmentPolicy::kOneByOne, 228, 57, 4},
        GridParam{AssignmentPolicy::kTwoByTwo, 8, 57, 4},
        GridParam{AssignmentPolicy::kTwoByTwo, 57, 57, 4},
        GridParam{AssignmentPolicy::kTwoByTwo, 171, 57, 4},
        GridParam{AssignmentPolicy::kTwoByTwo, 228, 57, 4},
        GridParam{AssignmentPolicy::kAllByAll, 16, 57, 4},
        GridParam{AssignmentPolicy::kAllByAll, 114, 57, 4},
        GridParam{AssignmentPolicy::kAllByAll, 171, 57, 4},
        GridParam{AssignmentPolicy::kAllByAll, 228, 57, 4},
        // Odd topologies: tiny, SMT-less, deep-SMT.
        GridParam{AssignmentPolicy::kOneByOne, 7, 3, 2},
        GridParam{AssignmentPolicy::kTwoByTwo, 7, 3, 2},
        GridParam{AssignmentPolicy::kAllByAll, 7, 3, 2},
        GridParam{AssignmentPolicy::kOneByOne, 5, 5, 1},
        GridParam{AssignmentPolicy::kTwoByTwo, 5, 5, 1},
        GridParam{AssignmentPolicy::kAllByAll, 5, 5, 1},
        GridParam{AssignmentPolicy::kOneByOne, 16, 2, 8},
        GridParam{AssignmentPolicy::kTwoByTwo, 16, 2, 8},
        GridParam{AssignmentPolicy::kAllByAll, 16, 2, 8}),
    param_name);

}  // namespace
}  // namespace rtseed::core
