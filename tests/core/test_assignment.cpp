#include "core/assignment.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

namespace rtseed::core {
namespace {

const common::Topology kPhi = common::Topology::xeon_phi_3120a();

TEST(Assignment, PolicyNames) {
  EXPECT_STREQ(assignment_policy_name(AssignmentPolicy::kOneByOne),
               "one-by-one");
  EXPECT_STREQ(assignment_policy_name(AssignmentPolicy::kTwoByTwo),
               "two-by-two");
  EXPECT_STREQ(assignment_policy_name(AssignmentPolicy::kAllByAll),
               "all-by-all");
}

// Fig. 8(a): with 171 parts, one-by-one assigns 3 hardware threads on
// every core C0–C56.
TEST(Assignment, Figure8aOneByOne171) {
  const auto counts = parts_per_core(kPhi, AssignmentPolicy::kOneByOne, 171);
  ASSERT_EQ(counts.size(), 57u);
  for (int core = 0; core < 57; ++core) {
    EXPECT_EQ(counts[static_cast<size_t>(core)], 3) << "core " << core;
  }
}

// Fig. 8(b): two-by-two assigns 4 threads on C0–C27, 3 on C28, 2 on
// C29–C56.
TEST(Assignment, Figure8bTwoByTwo171) {
  const auto counts = parts_per_core(kPhi, AssignmentPolicy::kTwoByTwo, 171);
  for (int core = 0; core <= 27; ++core) {
    EXPECT_EQ(counts[static_cast<size_t>(core)], 4) << "core " << core;
  }
  EXPECT_EQ(counts[28], 3);
  for (int core = 29; core <= 56; ++core) {
    EXPECT_EQ(counts[static_cast<size_t>(core)], 2) << "core " << core;
  }
}

// Fig. 8(c): all-by-all assigns 4 threads on C0–C41, 3 on C42, none on
// C43–C56.
TEST(Assignment, Figure8cAllByAll171) {
  const auto counts = parts_per_core(kPhi, AssignmentPolicy::kAllByAll, 171);
  for (int core = 0; core <= 41; ++core) {
    EXPECT_EQ(counts[static_cast<size_t>(core)], 4) << "core " << core;
  }
  EXPECT_EQ(counts[42], 3);
  for (int core = 43; core <= 56; ++core) {
    EXPECT_EQ(counts[static_cast<size_t>(core)], 0) << "core " << core;
  }
}

TEST(Assignment, OneByOneFillsSibling0First) {
  // First 57 parts land on sibling 0 of cores 0..56 in order.
  for (int j = 0; j < 57; ++j) {
    const auto cpu = assign_cpu(kPhi, AssignmentPolicy::kOneByOne, j);
    EXPECT_EQ(kPhi.core_of(cpu), j);
    EXPECT_EQ(kPhi.sibling_of(cpu), 0);
  }
  // Part 57 starts sibling 1 on core 0.
  const auto cpu57 = assign_cpu(kPhi, AssignmentPolicy::kOneByOne, 57);
  EXPECT_EQ(kPhi.core_of(cpu57), 0);
  EXPECT_EQ(kPhi.sibling_of(cpu57), 1);
}

TEST(Assignment, AllByAllFillsCore0First) {
  // Parts 0..3 all on core 0 ("four by four on the Xeon Phi").
  for (int j = 0; j < 4; ++j) {
    const auto cpu = assign_cpu(kPhi, AssignmentPolicy::kAllByAll, j);
    EXPECT_EQ(kPhi.core_of(cpu), 0);
    EXPECT_EQ(kPhi.sibling_of(cpu), j);
  }
  EXPECT_EQ(kPhi.core_of(assign_cpu(kPhi, AssignmentPolicy::kAllByAll, 4)), 1);
}

TEST(Assignment, TwoByTwoPairsAcrossCores) {
  // Parts 0,1 -> core 0 siblings 0,1; parts 2,3 -> core 1 siblings 0,1.
  EXPECT_EQ(kPhi.core_of(assign_cpu(kPhi, AssignmentPolicy::kTwoByTwo, 0)), 0);
  EXPECT_EQ(kPhi.sibling_of(assign_cpu(kPhi, AssignmentPolicy::kTwoByTwo, 1)),
            1);
  EXPECT_EQ(kPhi.core_of(assign_cpu(kPhi, AssignmentPolicy::kTwoByTwo, 2)), 1);
  // After 114 parts (2 per core), the second pass uses siblings 2,3.
  const auto cpu114 = assign_cpu(kPhi, AssignmentPolicy::kTwoByTwo, 114);
  EXPECT_EQ(kPhi.core_of(cpu114), 0);
  EXPECT_EQ(kPhi.sibling_of(cpu114), 2);
}

TEST(Assignment, FullMachineUsesEveryHardwareThreadExactlyOnce) {
  for (auto policy : {AssignmentPolicy::kOneByOne, AssignmentPolicy::kTwoByTwo,
                      AssignmentPolicy::kAllByAll}) {
    const auto cpus = assign_optional_parts(kPhi, policy, 228);
    std::set<common::CpuId> unique(cpus.begin(), cpus.end());
    EXPECT_EQ(unique.size(), 228u) << assignment_policy_name(policy);
  }
}

TEST(Assignment, WrapsBeyondMachineSize) {
  const auto a = assign_cpu(kPhi, AssignmentPolicy::kOneByOne, 0);
  const auto b = assign_cpu(kPhi, AssignmentPolicy::kOneByOne, 228);
  EXPECT_EQ(a, b);
}

TEST(Assignment, PaperNpSetNeverExceedsCounts) {
  // All np values of the paper's sweep produce exactly np placements.
  for (int np : {4, 8, 16, 32, 57, 114, 171, 228}) {
    for (auto policy : {AssignmentPolicy::kOneByOne,
                        AssignmentPolicy::kTwoByTwo,
                        AssignmentPolicy::kAllByAll}) {
      const auto counts = parts_per_core(kPhi, policy, np);
      int total = 0;
      for (int c : counts) total += c;
      EXPECT_EQ(total, np);
    }
  }
}

TEST(Assignment, SmtOneTopologyDegeneratesToRoundRobin) {
  const auto flat = common::Topology::uniform(4, 1);
  for (auto policy : {AssignmentPolicy::kOneByOne, AssignmentPolicy::kTwoByTwo,
                      AssignmentPolicy::kAllByAll}) {
    const auto cpus = assign_optional_parts(flat, policy, 4);
    std::set<common::CpuId> unique(cpus.begin(), cpus.end());
    EXPECT_EQ(unique.size(), 4u);
  }
}

TEST(Assignment, FirstPartSharesMandatoryCore) {
  // Paper: "the first parallel optional thread is executed on the
  // processor that executes the mandatory thread" (core 0).
  for (auto policy : {AssignmentPolicy::kOneByOne, AssignmentPolicy::kTwoByTwo,
                      AssignmentPolicy::kAllByAll}) {
    EXPECT_EQ(kPhi.core_of(assign_cpu(kPhi, policy, 0)), 0);
  }
}

// ---- kTopologyAware -------------------------------------------------------

TEST(Assignment, TopologyAwareName) {
  EXPECT_STREQ(assignment_policy_name(AssignmentPolicy::kTopologyAware),
               "topology-aware");
}

TEST(Assignment, TopologyAwarePacksSiblingsFirst) {
  // 4 cores x 2: sibling packing fills both hardware threads of a core
  // before touching the next core.
  const auto t = common::Topology::uniform(4, 2);
  const auto cpus =
      assign_optional_parts(t, AssignmentPolicy::kTopologyAware, 4);
  ASSERT_EQ(cpus.size(), 4u);
  EXPECT_EQ(t.core_of(cpus[0]), t.core_of(cpus[1]));
  EXPECT_EQ(t.core_of(cpus[2]), t.core_of(cpus[3]));
  EXPECT_NE(t.core_of(cpus[0]), t.core_of(cpus[2]));
}

TEST(Assignment, TopologyAwareAvoidsMandatoryCore) {
  const auto t = common::Topology::uniform(4, 2);
  // All 6 non-mandatory hardware threads get used before any wrap; core 1
  // (the mandatory core) never appears.
  const auto counts =
      parts_per_core(t, AssignmentPolicy::kTopologyAware, 6, /*avoid=*/1);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 2);
}

TEST(Assignment, TopologyAwareWrapsOverNonMandatoryCpusOnly) {
  const auto t = common::Topology::uniform(2, 2);
  // 2 cores x 2, avoid core 0: only core 1's two threads are usable; ten
  // parts wrap over those two CPUs and never land on core 0.
  const auto counts =
      parts_per_core(t, AssignmentPolicy::kTopologyAware, 10, /*avoid=*/0);
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 10);
}

TEST(Assignment, TopologyAwareSingleCoreFallsBackToIt) {
  const auto t = common::Topology::uniform(1, 4);
  // Nowhere else to go: the mandatory core is also the optional core.
  const auto cpus =
      assign_optional_parts(t, AssignmentPolicy::kTopologyAware, 4,
                            /*avoid=*/0);
  ASSERT_EQ(cpus.size(), 4u);
  std::set<common::CpuId> unique(cpus.begin(), cpus.end());
  EXPECT_EQ(unique.size(), 4u);  // all four hardware threads of core 0
}

TEST(Assignment, TopologyAwareFillsMandatoryLlcDomainFirst) {
  // 4 single-thread cores in two LLC complexes {0,1} and {2,3}, built from
  // a sysfs fixture tree.  With the mandatory part on core 2, the first
  // optional part must land on core 3 (same LLC), and cores 0/1 only after.
  char templ[] = "/tmp/rtseed_assign_XXXXXX";
  ASSERT_NE(mkdtemp(templ), nullptr);
  const std::string root = templ;
  const auto write = [&](const std::string& rel, const std::string& text) {
    std::string path = root;
    size_t pos = 0;
    while ((pos = rel.find('/', pos)) != std::string::npos) {
      ::mkdir((root + "/" + rel.substr(0, pos)).c_str(), 0755);
      ++pos;
    }
    std::ofstream out(root + "/" + rel);
    out << text;
  };
  for (int cpu = 0; cpu < 4; ++cpu) {
    write("cpu" + std::to_string(cpu) + "/topology/core_id",
          std::to_string(cpu) + "\n");
    const std::string cache = "cpu" + std::to_string(cpu) + "/cache/index3";
    write(cache + "/level", "3\n");
    write(cache + "/shared_cpu_list", cpu < 2 ? "0-1\n" : "2-3\n");
  }
  const auto t = common::Topology::from_sysfs_root(root, 4);
  ASSERT_EQ(t.num_llc_domains(), 2);

  const auto cpus =
      assign_optional_parts(t, AssignmentPolicy::kTopologyAware, 3,
                            /*avoid=*/2);
  ASSERT_EQ(cpus.size(), 3u);
  EXPECT_TRUE(t.shares_llc(t.core_of(cpus[0]), 2));  // core 3 first
  EXPECT_NE(t.core_of(cpus[0]), 2);                  // never core 2 itself
  EXPECT_FALSE(t.shares_llc(t.core_of(cpus[1]), 2));
  EXPECT_FALSE(t.shares_llc(t.core_of(cpus[2]), 2));

  const std::string cleanup = "rm -rf '" + root + "'";
  (void)system(cleanup.c_str());
}

TEST(Assignment, TopologyAwareNoAvoidUsesAllCores) {
  const auto t = common::Topology::uniform(3, 2);
  const auto counts =
      parts_per_core(t, AssignmentPolicy::kTopologyAware, 6, /*avoid=*/-1);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(counts[static_cast<size_t>(c)], 2) << "core " << c;
  }
}

}  // namespace
}  // namespace rtseed::core
