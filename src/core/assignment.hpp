// Assignment of parallel optional parts to hardware threads (paper §V-A,
// Fig. 8).
//
//  * One by One: one part per core across all cores, then a second sibling
//    per core, and so on.                 part j -> (core j mod C, sibling ⌊j/C⌋)
//  * Two by Two: pairs of siblings per core across all cores, then the next
//    pair of siblings.
//  * All by All: fill every sibling of a core before moving to the next
//    core (four by four on the Xeon Phi).  part j -> (core ⌊j/S⌋, sibling j mod S)
//
// With 171 parts on the Xeon Phi (57 cores x 4) these reproduce the paper's
// Fig. 8 exactly: (a) 3 threads on every core; (b) 4 on C0–C27, 3 on C28,
// 2 on C29–C56; (c) 4 on C0–C41, 3 on C42, none on C43–C56.
//
// Beyond the paper's three, kTopologyAware uses the machine shape that
// common::Topology parses out of sysfs:
//  * sibling packing — fill every SMT sibling of a core before the next
//    core, so optional parts that read the same market snapshot share L1/L2;
//  * mandatory isolation — the core given via `avoid_core` (where the
//    mandatory thread is pinned) receives no optional parts while any other
//    core exists;
//  * LLC proximity — cores sharing the mandatory core's last-level cache
//    are filled first (the snapshot the mandatory part just wrote is hot
//    there), then remaining cores grouped by LLC domain.
#pragma once

#include <string>
#include <vector>

#include "common/topology.hpp"

namespace rtseed::core {

using common::CpuId;

enum class AssignmentPolicy { kOneByOne, kTwoByTwo, kAllByAll,
                              kTopologyAware };

const char* assignment_policy_name(AssignmentPolicy policy);

/// CPU of optional part j (0-based) under `policy`.  Parts beyond the CPU
/// count wrap around (several parts may share a hardware thread).
/// `avoid_core` (used by kTopologyAware only) names the mandatory part's
/// physical core: it gets no optional parts unless it is the only core,
/// and its LLC domain is filled first.  -1 = no mandatory core known.
CpuId assign_cpu(const common::Topology& topology, AssignmentPolicy policy,
                 int part_index, int avoid_core = -1);

/// CPUs for all `num_parts` optional parts.
std::vector<CpuId> assign_optional_parts(const common::Topology& topology,
                                         AssignmentPolicy policy,
                                         int num_parts, int avoid_core = -1);

/// parts_per_core[c] = number of optional parts on core c (Fig. 8 view).
std::vector<int> parts_per_core(const common::Topology& topology,
                                AssignmentPolicy policy, int num_parts,
                                int avoid_core = -1);

}  // namespace rtseed::core
