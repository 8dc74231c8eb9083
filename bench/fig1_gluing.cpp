// Reproduces Figure 1: gluing cycles together.
//
// The figure's worked example uses n = 10, r = 1, k = 2 with the cycles
// C(3,12), C(3,17), C(8,12), C(8,17).  We print the exact id layouts of
// the figure, then run the executable attack at the smallest n our
// radius-2 schemes allow (the colour window 2r+1 = 5 needs n >= 24),
// tracing every step: colours, the monochromatic 4-cycle in K_{n,n}, the
// glued 2n-cycle, and the per-node verdicts on the fooled instance.  Exits
// 1 unless the truncated scheme is fooled and the honest one is not.
#include <cstdio>

#include "bench_util.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "lower/gluing.hpp"

namespace lcp::lower {
namespace {

void print_figure_layout() {
  std::printf("The paper's illustration (n = 10):\n");
  for (auto [a, b] : {std::pair<NodeId, NodeId>{3, 12},
                      {3, 17},
                      {8, 12},
                      {8, 17}}) {
    std::printf("  C(%llu,%llu): ", static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
    for (NodeId id : gluing_cycle_ids(10, a, b)) {
      std::printf("%llu ", static_cast<unsigned long long>(id));
    }
    std::printf("\n");
  }
  std::printf(
      "  (note the +4n,+6n,... offsets: every node's port structure is\n"
      "   independent of the concrete a and b - the gluing linchpin)\n\n");
}

/// Runs and narrates the attack; returns true when it fooled the scheme.
bool run_trace(int n, int bits) {
  std::printf("Executable attack: leader election on %d-cycles, proofs "
              "truncated to b = %d bits per field.\n\n", n, bits);
  const GluingProblem problem = leader_election_problem(bits);
  const GluingOutcome o = run_gluing_attack(problem, n, n, 8);

  std::printf("step 1: proved %s yes-instances C(a,b), a in 1..%d, b in "
              "%d+1..%d+8\n",
              o.proved_all ? "all" : "NOT all", n, n, n);
  std::printf("step 2: distinct colours c(a,b) observed: %zu (pigeonhole "
              "forces collisions once 2^b < n)\n",
              o.num_colors);
  if (!o.found_collision) {
    std::printf("step 3: no monochromatic 4-cycle found -- attack fails.\n");
    return false;
  }
  std::printf("step 3: monochromatic 4-cycle in K_{n,n}: "
              "(a1,b1,a2,b2) = (%llu, %llu, %llu, %llu)\n",
              static_cast<unsigned long long>(o.a1),
              static_cast<unsigned long long>(o.b1),
              static_cast<unsigned long long>(o.a2),
              static_cast<unsigned long long>(o.b2));
  std::printf("        c(a1,b1) = c(a1,b2) = c(a2,b1) = c(a2,b2)\n");
  std::printf("step 4: glue C(a1,b1) and C(a2,b2): drop {a_i, b_i}, add "
              "{b1,a2} and {b2,a1}, inherit all %d proof labels\n", 2 * n);
  std::printf("step 5: verifier on the glued %d-cycle: %s\n", 2 * n,
              o.all_accept ? "ALL NODES ACCEPT" : "some node rejects");
  std::printf("        ground truth: glued instance %s (two leaders!)\n",
              o.glued_is_yes ? "is a yes-instance" : "is a NO-instance");
  std::printf("\n=> %s\n",
              o.fooled()
                  ? "FOOLED: the o(log n)-bit scheme accepted a no-instance, "
                    "reproducing the Omega(log n) bound"
                  : "attack failed");
  return o.fooled();
}

}  // namespace
}  // namespace lcp::lower

int main() {
  lcp::bench::heading("Figure 1 - gluing cycles together (Section 5.3)");
  lcp::lower::print_figure_layout();
  const bool attack_fooled = lcp::lower::run_trace(33, 2);
  lcp::bench::rule();
  std::printf("\nControl: the honest Theta(log n) scheme on the same "
              "instances.\n");
  const auto honest = lcp::lower::run_gluing_attack(
      lcp::lower::leader_election_problem(0), 33, 33, 8);
  std::printf("distinct colours: %zu, monochromatic 4-cycle found: %s "
              "(the full root id pins every colour down)\n",
              honest.num_colors, honest.found_collision ? "yes" : "no");
  std::printf("=> honest scheme %s\n",
              honest.fooled() ? "FOOLED (bug!)" : "never fooled");
  // The reproduction holds only when the truncated scheme is fooled and
  // the honest one is not.
  return attack_fooled && !honest.fooled() ? 0 : 1;
}
