// Reproduces Table 1(a): local proof complexities of graph *properties*.
//
// For every row we sweep instances, run the scheme's prover, verify the
// proof (completeness), record the proof size in bits per node, and fit
// the growth class; the verdict compares the fitted class with the
// paper's bound.  Absolute constants differ from the paper (our encodings
// are explicit), the growth shapes must not.  Exits 1 if any row is not
// OK, so CI fails on a broken reproduction.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/registry.hpp"
#include "graph/directed.hpp"
#include "graph/generators.hpp"
#include "logic/sigma11.hpp"
#include "schemes/chromatic.hpp"
#include "schemes/colcp0.hpp"
#include "schemes/cycle_certified.hpp"
#include "schemes/fixpoint_tree.hpp"
#include "schemes/lcp0.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/st_connectivity.hpp"
#include "schemes/tree_certified.hpp"
#include "schemes/universal.hpp"

namespace lcp {
namespace {

using bench::measure;
using bench::print_header;
using bench::print_row;
using bench::SizeSample;

Graph mark_st(Graph g, int s, int t) {
  g.set_label(s, schemes::kSourceLabel);
  g.set_label(t, schemes::kTargetLabel);
  return g;
}

void lcp0_rows() {
  const schemes::EulerianScheme eulerian;
  const schemes::LineGraphScheme line;
  std::vector<SizeSample> e, l;
  for (int n : {8, 16, 32, 64, 128}) {
    e.push_back(measure(eulerian, gen::cycle(n), n));
    l.push_back(measure(line, gen::cycle(n), n));  // L(C_n) = C_n
  }
  print_row("eulerian graph", "connected", "0", e, GrowthClass::kZero);
  print_row("line graph", "general", "0", l, GrowthClass::kZero);
}

void constant_rows() {
  const schemes::BipartiteScheme bip;
  const schemes::EvenCycleScheme even;
  const schemes::StReachabilityScheme reach;
  const schemes::StUnreachableScheme unreach;
  const schemes::StUnreachableDirectedScheme unreach_dir;
  std::vector<SizeSample> b, ec, r, u, ud;
  for (int n : {8, 16, 32, 64, 128}) {
    b.push_back(measure(bip, gen::cycle(2 * n), n));
    ec.push_back(measure(even, gen::cycle(2 * n), n));
    r.push_back(measure(reach, mark_st(gen::grid(4, n / 4), 0, n - 1), n));
    u.push_back(measure(
        unreach,
        mark_st(gen::disjoint_union(gen::cycle(n), gen::cycle(n)), 0, n + 1),
        n));
    Graph chain = gen::path(n);
    for (int v = 0; v + 1 < n; ++v) directed::add_arc(chain, v + 1, v);
    ud.push_back(measure(unreach_dir, mark_st(std::move(chain), 0, n - 1), n));
  }
  print_row("bipartite graph", "general", "Theta(1)", b,
            GrowthClass::kConstant);
  print_row("even n(G)", "cycles", "Theta(1)", ec, GrowthClass::kConstant);
  print_row("s-t reachability", "undirected", "Theta(1)", r,
            GrowthClass::kConstant);
  print_row("s-t unreachability", "undirected", "Theta(1)", u,
            GrowthClass::kConstant);
  print_row("s-t unreachability", "directed", "Theta(1)", ud,
            GrowthClass::kConstant);
}

/// k internally disjoint s-t paths of length 4 (a generalised theta graph).
Graph theta_graph(int k) {
  Graph g;
  const int s = g.add_node(1);
  const int t = g.add_node(2);
  NodeId next = 10;
  for (int i = 0; i < k; ++i) {
    const int m1 = g.add_node(next++);
    const int m2 = g.add_node(next++);
    const int m3 = g.add_node(next++);
    g.add_edge(s, m1);
    g.add_edge(m1, m2);
    g.add_edge(m2, m3);
    g.add_edge(m3, t);
  }
  return mark_st(std::move(g), s, t);
}

void logk_rows() {
  // s-t connectivity = k, general: proof bits grow as log k.
  std::vector<SizeSample> conn, chrom;
  for (int k : {1, 2, 4, 8, 16}) {
    const schemes::StConnectivityScheme scheme(
        k, schemes::PathNaming::kUniqueIndices);
    conn.push_back(measure(scheme, theta_graph(k), k));
    const schemes::ChromaticLeqKScheme chrom_scheme(k);
    chrom.push_back(measure(chrom_scheme, gen::complete(k), k));
  }
  print_row("s-t connectivity = k", "general", "O(log k)", conn,
            GrowthClass::kLogarithmic);
  print_row("chromatic number <= k", "general", "O(log k)", chrom,
            GrowthClass::kLogarithmic);

  // The planar variant with 3 path colours stays constant in both k and n.
  std::vector<SizeSample> planar;
  for (int side : {4, 6, 8, 12, 16}) {
    const schemes::StConnectivityScheme scheme(
        2, schemes::PathNaming::kThreeColors);
    planar.push_back(measure(
        scheme, mark_st(gen::grid(side, side), 0, side * side - 1), side));
  }
  print_row("s-t connectivity = k", "planar", "Theta(1)", planar,
            GrowthClass::kConstant);
}

void logn_rows() {
  const schemes::ParityScheme odd(true);
  const schemes::NonBipartiteScheme nonbip;
  const schemes::CoLcp0Scheme co_euler(
      std::make_shared<schemes::EulerianScheme>());
  const auto sigma11 = logic::make_sigma11_two_colorable_scheme();
  std::vector<SizeSample> o, nb, ce, s11;
  for (int n : {9, 17, 33, 65, 129}) {
    o.push_back(measure(odd, gen::cycle(n), n));
    nb.push_back(measure(nonbip, gen::cycle(n), n));
    ce.push_back(measure(co_euler, gen::path(n), n));
    s11.push_back(measure(*sigma11, gen::cycle(n - 1), n));
  }
  print_row("odd n(G)", "cycles", "Theta(log n)", o,
            GrowthClass::kLogarithmic);
  print_row("chromatic number > 2", "connected", "Theta(log n)", nb,
            GrowthClass::kLogarithmic);
  print_row("coLCP(0): non-eulerian", "connected", "O(log n)", ce,
            GrowthClass::kLogarithmic);
  print_row("monadic Sigma11: 2-col", "connected", "O(log n)", s11,
            GrowthClass::kLogarithmic);
}

void composed_rows() {
  // LCP(s) is closed under conjunction (the scheme algebra,
  // core/compose.hpp): the composed proof is the offset-table
  // concatenation of the component proofs, so the measured size tracks
  // the sum of the component rows — here Theta(1) + Theta(log n).
  const auto conj = builtin_registry().build("bipartite & even-n");
  std::vector<SizeSample> c;
  for (int n : {8, 16, 32, 64, 128}) {
    c.push_back(measure(*conj, gen::cycle(n), n));
  }
  print_row("bipartite AND even n(G)", "connected", "Theta(log n)", c,
            GrowthClass::kLogarithmic);
}

void poly_rows() {
  const schemes::FixpointFreeTreeScheme fixpoint;
  std::vector<SizeSample> fp;
  for (int n : {8, 16, 32, 64, 128}) {
    fp.push_back(measure(fixpoint, gen::path(n), n));  // even paths qualify
  }
  print_row("fixpoint-free symmetry", "trees", "Theta(n)", fp,
            GrowthClass::kLinear);

  const auto symmetric = schemes::make_symmetric_graph_scheme();
  std::vector<SizeSample> sym;
  for (int n : {6, 10, 14, 20, 26}) {
    sym.push_back(measure(*symmetric, gen::cycle(n), n));
  }
  print_row("symmetric graph", "connected", "Theta(n^2)", sym,
            GrowthClass::kQuadratic);

  const auto non3col = schemes::make_non_3_colorable_scheme();
  std::vector<SizeSample> n3;
  for (int n : {5, 7, 9, 11, 13}) {
    // Odd wheels are 4-chromatic.
    Graph wheel = gen::cycle(n);
    const int hub = wheel.add_node(100);
    for (int v = 0; v < n; ++v) wheel.add_edge(hub, v);
    n3.push_back(measure(*non3col, wheel, n + 1));
  }
  print_row("chromatic number > 3", "connected", "O(n^2)", n3,
            GrowthClass::kQuadratic);

  const schemes::UniversalScheme universal(
      "any computable", [](const Graph&) { return true; });
  std::vector<SizeSample> uni;
  for (int n : {8, 12, 16, 24, 32}) {
    uni.push_back(measure(universal, gen::random_connected(n, 0.2, 1), n));
  }
  print_row("computable properties", "connected", "O(n^2)", uni,
            GrowthClass::kQuadratic);
}

}  // namespace
}  // namespace lcp

int main() {
  lcp::bench::heading(
      "Table 1(a) - local proof complexity of graph properties "
      "(PODC'11, Goos & Suomela)");
  lcp::bench::print_header();
  lcp::lcp0_rows();
  lcp::constant_rows();
  lcp::logk_rows();
  lcp::logn_rows();
  lcp::composed_rows();
  lcp::poly_rows();
  lcp::bench::rule();
  std::printf(
      "verdict OK = prover's proof accepted by all nodes AND fitted growth "
      "class matches the paper.\n");
  return lcp::bench::table_exit_status();
}
