// Figure 8 — assignment of 171 parallel optional parts to the Xeon Phi
// 3120A's hardware threads (57 cores x 4) under the three policies.
//
// Prints the per-core occupancy map the figure draws as black squares and
// self-checks the exact distribution the paper describes.
#include <cstdio>

#include "core/assignment.hpp"

using namespace rtseed;

namespace {

bool print_policy(core::AssignmentPolicy policy, int np,
                  const common::Topology& topology) {
  const auto counts = core::parts_per_core(topology, policy, np);
  std::printf("--- %s, np=%d ---\n",
              core::assignment_policy_name(policy), np);
  for (int core = 0; core < topology.num_cores(); ++core) {
    std::printf("C%-3d ", core);
    const int used = counts[static_cast<size_t>(core)];
    for (int sibling = 0; sibling < topology.smt_per_core(); ++sibling) {
      std::printf("%s", sibling < used ? "#" : ".");
    }
    std::printf("  (%d)\n", used);
  }
  std::printf("\n");
  return true;
}

bool expect(bool condition, const char* what) {
  if (!condition) std::printf("[shape check] FAILED: %s\n", what);
  return condition;
}

}  // namespace

int main() {
  const auto phi = common::Topology::xeon_phi_3120a();
  constexpr int kNp = 171;

  std::printf("=== Figure 8: assigning %d parallel optional parts on %s ===\n\n",
              kNp, phi.to_string().c_str());
  print_policy(core::AssignmentPolicy::kOneByOne, kNp, phi);
  print_policy(core::AssignmentPolicy::kTwoByTwo, kNp, phi);
  print_policy(core::AssignmentPolicy::kAllByAll, kNp, phi);

  // Paper text: (a) 3 threads on all of C0-C56; (b) 4 on C0-C27, 3 on
  // C28, 2 on C29-C56; (c) 4 on C0-C41, 3 on C42, none on C43-C56.
  bool ok = true;
  const auto one =
      core::parts_per_core(phi, core::AssignmentPolicy::kOneByOne, kNp);
  for (int c = 0; c < 57; ++c) ok &= expect(one[c] == 3, "one-by-one: 3/core");
  const auto two =
      core::parts_per_core(phi, core::AssignmentPolicy::kTwoByTwo, kNp);
  for (int c = 0; c <= 27; ++c) ok &= expect(two[c] == 4, "two-by-two C0-27");
  ok &= expect(two[28] == 3, "two-by-two C28");
  for (int c = 29; c <= 56; ++c) ok &= expect(two[c] == 2, "two-by-two C29-56");
  const auto all =
      core::parts_per_core(phi, core::AssignmentPolicy::kAllByAll, kNp);
  for (int c = 0; c <= 41; ++c) ok &= expect(all[c] == 4, "all-by-all C0-41");
  ok &= expect(all[42] == 3, "all-by-all C42");
  for (int c = 43; c <= 56; ++c) ok &= expect(all[c] == 0, "all-by-all C43-56");

  std::printf("[shape check] %s\n",
              ok ? "all three maps match the paper's Figure 8 exactly"
                 : "some maps diverge from the paper");
  return ok ? 0 : 1;
}
