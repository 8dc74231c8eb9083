// Section 5.4 lower bounds, executed: the gluing adversary against the
// four problem families on cycles, sweeping the per-field proof budget b
// and the cycle length n.  The attack succeeds exactly while 2^b < n
// (colour collisions exist) and the honest schemes (b = 0) always resist:
// the empirical Theta(log n) threshold.  Exits 1 if an honest scheme is
// ever fooled (a "YES(!)" cell), so CI fails on a broken reproduction.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "lower/gluing.hpp"

namespace lcp::lower {
namespace {

void sweep_problem(const char* name, GluingProblem (*make)(int),
                   const std::vector<int>& sizes) {
  std::printf("%-24s", name);
  for (int n : sizes) std::printf(" n=%-5d", n);
  std::printf("\n");
  for (int b : {1, 2, 3, 4, 5, 6, 7, 8}) {
    std::printf("  b = %-2d fooled:       ", b);
    for (int n : sizes) {
      const GluingOutcome o = run_gluing_attack(make(b), n, n, 6);
      std::printf(" %-7s", o.fooled() ? "yes" : "no");
    }
    std::printf("\n");
  }
  std::printf("  honest (Theta(log n)):");
  for (int n : sizes) {
    const GluingOutcome o = run_gluing_attack(make(0), n, n, 6);
    if (o.fooled()) ++bench::failed_rows();
    std::printf(" %-7s", o.fooled() ? "YES(!)" : "no");
  }
  std::printf("\n\n");
}

}  // namespace
}  // namespace lcp::lower

int main() {
  lcp::bench::heading(
      "Section 5.4 - Omega(log n) lower bounds via cycle gluing");
  std::printf(
      "Attack succeeds ('yes') when a b-bit-per-field scheme accepts a glued\n"
      "no-instance; expected boundary: fooled while 2^b < n, resistant "
      "above.\n\n");
  const std::vector<int> sizes{33, 65, 129};
  lcp::lower::sweep_problem("leader election",
                            lcp::lower::leader_election_problem, sizes);
  lcp::lower::sweep_problem("spanning tree",
                            lcp::lower::spanning_tree_problem, sizes);
  lcp::lower::sweep_problem("odd n / non-bipartite",
                            lcp::lower::odd_n_problem, sizes);
  lcp::lower::sweep_problem("max matching on cycles",
                            lcp::lower::max_matching_problem, sizes);
  lcp::bench::rule();
  std::printf(
      "Reading the table: each column's yes->no flip sits at b ~ log2(n),\n"
      "matching the paper's Theta(log n) proof-size threshold.\n");
  return lcp::bench::table_exit_status();
}
