// Section 6.2: fixpoint-free symmetry on trees needs Theta(n) bits.
//
// The counting side: rooted trees (OEIS A000081) and asymmetric (identity)
// rooted trees both number 2^{Theta(k)} — so the G1 (.) G2 argument on
// trees forces Omega(n) bits, while Section 6.1's graphs force Omega(n^2).
// The upper-bound side: our Theta(n)-bit canonical-code scheme, measured.
//
// Exits 1 (count on stderr) when a count differs from OEIS, the prover
// fails on an even path, or the fixpoint-free law's tally is off.
#include <cmath>
#include <cstdio>
#include <cstdint>

#include "bench_util.hpp"
#include "algo/trees.hpp"
#include "graph/generators.hpp"
#include "schemes/fixpoint_tree.hpp"

namespace lcp {
namespace {

// OEIS A000081 (rooted trees), A004111 (rooted identity trees) and
// A000055 (free trees), indexed by the node count; entry 0 is unused.
constexpr std::uint64_t kRootedTrees[] = {
    0,      1,      1,      2,       4,       9,       20,
    48,     115,    286,    719,     1842,    4766,    12486,
    32973,  87811,  235381, 634847,  1721159, 4688676, 12826228};
constexpr std::uint64_t kIdentityRootedTrees[] = {
    0,    1,    1,     1,     2,     3,      6,      12,    25,
    52,   113,  247,   548,   1226,  2770,   6299,   14426, 33209,
    76851, 178618, 416848};
constexpr int kFreeTrees[] = {0, 1, 1, 1, 2, 3, 6, 11, 23};

/// Prints " MISMATCH (expected ...)" and counts a failure unless equal.
void check(std::uint64_t got, std::uint64_t want) {
  if (got == want) return;
  ++bench::failed_rows();
  std::printf("  MISMATCH (expected %llu)", static_cast<unsigned long long>(want));
}

void counting_table() {
  std::printf("Rooted-tree counts (A000081) and asymmetric rooted trees:\n");
  std::printf("  %-4s %-14s %-16s %s\n", "k", "rooted trees",
              "asymmetric rooted", "log2(asymmetric)");
  for (int k : {4, 6, 8, 10, 12, 14, 16, 18, 20}) {
    const auto all = rooted_trees_count(k);
    const auto rigid = asymmetric_rooted_trees_count(k);
    std::printf("  %-4d %-14llu %-16llu %.2f", k, all, rigid,
                rigid > 0 ? std::log2(static_cast<double>(rigid)) : 0.0);
    check(all, kRootedTrees[k]);
    check(rigid, kIdentityRootedTrees[k]);
    std::printf("\n");
  }
  std::printf("  (log2 grows linearly in k: |F_k| = 2^{Theta(k)}, hence the\n"
              "   Omega(n) lower bound for tree properties)\n\n");
}

void scheme_sizes() {
  const schemes::FixpointFreeTreeScheme scheme;
  std::printf("The Theta(n) upper bound, measured (canonical parentheses "
              "code + index):\n");
  std::printf("  %-6s %-10s %s\n", "n", "bits", "bits per n");
  for (int n : {8, 16, 32, 64, 128, 256}) {
    const Graph t = gen::path(n);  // even paths are fixpoint-free
    const auto proof = scheme.prove(t);
    if (!proof.has_value()) {
      std::printf("  %-6d prover failed (unexpected)\n", n);
      ++bench::failed_rows();
      continue;
    }
    std::printf("  %-6d %-10d %.2f\n", n, proof->size_bits(),
                static_cast<double>(proof->size_bits()) / n);
  }
  std::printf("\nFixpoint-free-tree law (bicentral with isomorphic halves):\n");
  for (int n = 2; n <= 8; ++n) {
    int yes = 0;
    int total = 0;
    for (const Graph& t : all_free_trees(n)) {
      ++total;
      if (tree_fixpoint_free_symmetry(t)) ++yes;
    }
    std::printf("  n = %d: %d of %d trees have a fixpoint-free symmetry", n,
                yes, total);
    // A fixpoint-free symmetry swaps the two halves of a bicentral tree,
    // so the trees that have one are the rooted trees on n/2 nodes, each
    // doubled; odd n has none.
    check(static_cast<std::uint64_t>(yes),
          n % 2 == 0 ? kRootedTrees[n / 2] : 0);
    check(static_cast<std::uint64_t>(total),
          static_cast<std::uint64_t>(kFreeTrees[n]));
    std::printf("\n");
  }
}

}  // namespace
}  // namespace lcp

int main() {
  lcp::bench::heading(
      "Section 6.2 - fixpoint-free symmetry on trees: Theta(n) bits");
  lcp::counting_table();
  lcp::scheme_sizes();
  lcp::bench::rule();
  return lcp::bench::table_exit_status();
}
