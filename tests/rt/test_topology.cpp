#include "common/topology.hpp"

#include <gtest/gtest.h>

namespace rtseed::common {
namespace {

TEST(Topology, UniformShape) {
  const auto t = Topology::uniform(4, 2);
  EXPECT_EQ(t.num_cores(), 4);
  EXPECT_EQ(t.smt_per_core(), 2);
  EXPECT_EQ(t.num_cpus(), 8);
}

TEST(Topology, UniformMappingRoundTrips) {
  const auto t = Topology::uniform(3, 4);
  for (int core = 0; core < 3; ++core) {
    for (int sib = 0; sib < 4; ++sib) {
      const CpuId cpu = t.cpu_at(core, sib);
      EXPECT_EQ(t.core_of(cpu), core);
      EXPECT_EQ(t.sibling_of(cpu), sib);
    }
  }
}

TEST(Topology, XeonPhi3120A) {
  const auto t = Topology::xeon_phi_3120a();
  // The paper's machine: 57 cores x 4 hardware threads = 228 (NR_CPUS).
  EXPECT_EQ(t.num_cores(), 57);
  EXPECT_EQ(t.smt_per_core(), 4);
  EXPECT_EQ(t.num_cpus(), 228);
}

TEST(Topology, ValidCpuBounds) {
  const auto t = Topology::uniform(2, 2);
  EXPECT_TRUE(t.valid_cpu(0));
  EXPECT_TRUE(t.valid_cpu(3));
  EXPECT_FALSE(t.valid_cpu(4));
  EXPECT_FALSE(t.valid_cpu(-1));
}

TEST(Topology, NativeIsSane) {
  const auto t = Topology::native();
  EXPECT_GE(t.num_cores(), 1);
  EXPECT_GE(t.smt_per_core(), 1);
  EXPECT_EQ(t.num_cpus(), t.num_cores() * t.smt_per_core());
  // Every CPU maps back consistently.
  for (int cpu = 0; cpu < t.num_cpus(); ++cpu) {
    EXPECT_EQ(t.cpu_at(t.core_of(cpu), t.sibling_of(cpu)), cpu);
  }
}

TEST(Topology, ToStringMentionsShape) {
  const auto t = Topology::uniform(57, 4);
  EXPECT_NE(t.to_string().find("57"), std::string::npos);
  EXPECT_NE(t.to_string().find("228"), std::string::npos);
}

}  // namespace
}  // namespace rtseed::common
