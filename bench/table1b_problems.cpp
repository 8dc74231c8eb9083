// Reproduces Table 1(b): local proof complexities of *solutions of graph
// problems* (labelled inputs; all schemes are strong, Section 7.2).  Exits 1
// if any row is not OK, so CI fails on a broken reproduction.
#include <cstdio>

#include "algo/bipartite.hpp"
#include "algo/matching.hpp"
#include "algo/traversal.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "local/pls_model.hpp"
#include "schemes/agreement.hpp"
#include "schemes/cycle_certified.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

using bench::measure;
using bench::print_header;
using bench::print_row;
using bench::SizeSample;

Graph with_greedy_matching(Graph g, std::uint64_t bit) {
  const auto mask = greedy_maximal_matching(g);
  for (int e = 0; e < g.m(); ++e) {
    if (mask[static_cast<std::size_t>(e)]) g.set_edge_label(e, bit);
  }
  return g;
}

Graph with_bfs_tree_labels(Graph g, std::uint64_t bit) {
  const RootedTree tree = bfs_tree(g, 0);
  for (int v = 1; v < g.n(); ++v) {
    g.set_edge_label(g.edge_index(v, tree.parent[static_cast<std::size_t>(v)]),
                     bit);
  }
  return g;
}

void zero_rows() {
  const schemes::MaximalMatchingScheme maximal;
  const schemes::MaximalIndependentSetScheme mis;
  const schemes::AgreementScheme agreement;
  std::vector<SizeSample> mm, mi, ag;
  for (int n : {8, 16, 32, 64, 128}) {
    mm.push_back(measure(
        maximal,
        with_greedy_matching(gen::random_connected(n, 0.2, 1),
                             schemes::MaximalMatchingScheme::kMatchedBit),
        n));
    Graph g = gen::random_connected(n, 0.2, 2);
    for (int v = 0; v < g.n(); ++v) {
      bool blocked = false;
      for (const HalfEdge& h : g.neighbors(v)) {
        blocked = blocked ||
                  g.label(h.to) ==
                      schemes::MaximalIndependentSetScheme::kInSetLabel;
      }
      if (!blocked) {
        g.set_label(v, schemes::MaximalIndependentSetScheme::kInSetLabel);
      }
    }
    mi.push_back(measure(mis, g, n));
    Graph same = gen::cycle(n);
    for (int v = 0; v < n; ++v) same.set_label(v, 1);
    ag.push_back(measure(agreement, same, n));
  }
  print_row("maximal matching", "general", "0", mm, GrowthClass::kZero);
  print_row("LCL: maximal indep. set", "general", "0", mi, GrowthClass::kZero);
  print_row("agreement (LCP model)", "general", "0", ag, GrowthClass::kZero);

  // The Section 3.2 separation: the same problem costs 1 bit in the
  // strictly weaker proof-labelling-scheme model of Korman et al.
  const schemes::PlsAgreementScheme pls;
  Graph same = gen::cycle(32);
  for (int v = 0; v < 32; ++v) same.set_label(v, 1);
  const Proof pls_proof = pls.prove(same);
  const bool pls_ok = run_pls_verifier(same, pls_proof, pls).all_accept;
  if (!pls_ok) ++bench::failed_rows();
  std::printf("%-28s %-12s %-14s %-24s %-13s %s\n", "agreement (PLS model)",
              "general", "1 [16]", std::to_string(pls_proof.size_bits()).c_str(),
              "Theta(1)", pls_ok ? "OK" : "INCOMPLETE");
}

void constant_rows() {
  const schemes::MaxMatchingBipartiteScheme konig;
  std::vector<SizeSample> km;
  for (int n : {8, 16, 32, 64, 128}) {
    Graph g = gen::complete_bipartite(n / 2, n / 2);
    const auto side = two_coloring(g);
    const auto mates = max_bipartite_matching(g, *side);
    for (int e = 0; e < g.m(); ++e) {
      if (mates[static_cast<std::size_t>(g.edge_u(e))] == g.edge_v(e)) {
        g.set_edge_label(e, schemes::MaxMatchingBipartiteScheme::kMatchedBit);
      }
    }
    km.push_back(measure(konig, g, n));
  }
  print_row("maximum matching", "bipartite", "Theta(1)", km,
            GrowthClass::kConstant);
}

void logw_row() {
  // Max-weight matching: bits grow with log W at fixed n.
  std::vector<SizeSample> mw;
  for (int w : {1, 3, 15, 63, 255}) {
    Graph g = gen::complete_bipartite(4, 4);
    std::uint32_t state = 12345;
    for (int e = 0; e < g.m(); ++e) {
      state = state * 1103515245 + 12345;
      g.set_edge_weight(e, static_cast<std::int64_t>(state >> 8) % (w + 1));
    }
    std::vector<bool> best;
    max_weight_matching_bruteforce(g, &best);
    for (int e = 0; e < g.m(); ++e) {
      if (best[static_cast<std::size_t>(e)]) {
        g.set_edge_label(e, schemes::MaxWeightMatchingScheme::kMatchedBit);
      }
    }
    const schemes::MaxWeightMatchingScheme scheme(w);
    mw.push_back(measure(scheme, g, w));
  }
  print_row("max-weight matching", "bip. W sweep", "O(log W)", mw,
            GrowthClass::kLogarithmic);
}

void logn_rows() {
  const schemes::LeaderElectionScheme leader;
  const schemes::SpanningTreeScheme spanning;
  const schemes::AcyclicScheme acyclic;
  const schemes::MaxMatchingCycleScheme cycles;
  const schemes::HamiltonianCycleScheme ham_cycle;
  const schemes::HamiltonianPathScheme ham_path;
  std::vector<SizeSample> le, sp, ac, mc, hc, hp;
  for (int n : {9, 17, 33, 65, 129}) {
    Graph lead = gen::random_connected(n, 0.15, 3);
    lead.set_label(n / 2, schemes::kLeaderFlag);
    le.push_back(measure(leader, lead, n));
    sp.push_back(measure(spanning,
                         with_bfs_tree_labels(
                             gen::random_connected(n, 0.15, 4),
                             schemes::SpanningTreeScheme::kTreeEdgeBit),
                         n));
    ac.push_back(measure(acyclic, gen::random_tree(n, 5), n));
    Graph match_cycle = gen::cycle(n);
    for (int i = 1; i + 1 < n; i += 2) {
      match_cycle.set_edge_label(
          match_cycle.edge_index(i, i + 1),
          schemes::MaxMatchingCycleScheme::kMatchedBit);
    }
    mc.push_back(measure(cycles, match_cycle, n));
    Graph hamc = gen::cycle(n);
    for (int e = 0; e < hamc.m(); ++e) {
      hamc.set_edge_label(e, schemes::HamiltonianCycleScheme::kCycleEdgeBit);
    }
    hamc.add_edge(0, n / 2);  // an unlabelled chord
    hc.push_back(measure(ham_cycle, hamc, n));
    Graph hamp = gen::path(n);
    for (int e = 0; e < hamp.m(); ++e) {
      hamp.set_edge_label(e, schemes::HamiltonianPathScheme::kPathEdgeBit);
    }
    hp.push_back(measure(ham_path, hamp, n));
  }
  print_row("leader election", "connected", "Theta(log n)", le,
            GrowthClass::kLogarithmic);
  print_row("spanning tree", "connected", "Theta(log n)", sp,
            GrowthClass::kLogarithmic);
  print_row("acyclic (forest) check", "general", "O(log n)", ac,
            GrowthClass::kLogarithmic);
  print_row("maximum matching", "cycles", "Theta(log n)", mc,
            GrowthClass::kLogarithmic);
  print_row("hamiltonian cycle", "connected", "Theta(log n)", hc,
            GrowthClass::kLogarithmic);
  print_row("hamiltonian path", "connected", "Theta(log n)", hp,
            GrowthClass::kLogarithmic);
}

}  // namespace
}  // namespace lcp

int main() {
  lcp::bench::heading(
      "Table 1(b) - local proof complexity of graph problems "
      "(PODC'11, Goos & Suomela)");
  lcp::bench::print_header();
  lcp::zero_rows();
  lcp::constant_rows();
  lcp::logw_row();
  lcp::logn_rows();
  lcp::bench::rule();
  std::printf(
      "All schemes are strong (Section 7.2): they certify the solution "
      "given in the input labels.\n");
  return lcp::bench::table_exit_status();
}
