// The LogLCP schemes of Section 5: leader election, spanning trees,
// parity, acyclicity, non-bipartiteness, Hamiltonian cycle/path, maximum
// matching on cycles.  Completeness across families, size bounds, and
// adversarial soundness probes.
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "algo/traversal.hpp"
#include "core/certificates.hpp"
#include "core/checker.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "schemes/cycle_certified.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp::schemes {
namespace {

std::vector<Graph> connected_family(int base) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::cycle(5 + base));
  graphs.push_back(gen::path(4 + base));
  graphs.push_back(gen::star(4 + base));
  graphs.push_back(gen::random_tree(8 + base, static_cast<std::uint32_t>(base)));
  graphs.push_back(gen::random_connected(9 + base, 0.3,
                                         static_cast<std::uint32_t>(base)));
  graphs.push_back(gen::grid(3, 3 + base % 3));
  graphs.push_back(gen::petersen());
  graphs.push_back(gen::hypercube(3));
  return graphs;
}

TEST(LeaderElection, CompletenessAnyLeaderAnywhere) {
  const LeaderElectionScheme scheme;
  for (Graph g : connected_family(0)) {
    for (int leader : {0, g.n() / 2, g.n() - 1}) {
      for (int v = 0; v < g.n(); ++v) g.set_label(v, 0);
      g.set_label(leader, kLeaderFlag);
      EXPECT_TRUE(scheme.holds(g));
      EXPECT_TRUE(scheme_accepts_own_proof(scheme, g)) << "leader " << leader;
    }
  }
}

TEST(LeaderElection, TwoLeadersHaveNoProof) {
  const LeaderElectionScheme scheme;
  Graph g = gen::cycle(6);
  g.set_label(1, kLeaderFlag);
  g.set_label(4, kLeaderFlag);
  EXPECT_FALSE(scheme.holds(g));
  // Transplant attack: stitch two single-leader proofs together.
  Graph g1 = gen::cycle(6);
  g1.set_label(1, kLeaderFlag);
  Graph g2 = gen::cycle(6);
  g2.set_label(4, kLeaderFlag);
  const auto p1 = scheme.prove(g1);
  const auto p2 = scheme.prove(g2);
  Proof stitched = *p1;
  for (int v = 3; v < 6; ++v) {
    stitched.labels[static_cast<std::size_t>(v)] =
        p2->labels[static_cast<std::size_t>(v)];
  }
  EXPECT_TRUE(rejected(g, stitched, scheme.verifier()));
}

TEST(LeaderElection, NoLeaderRejected) {
  const LeaderElectionScheme scheme;
  const Graph g = gen::cycle(5);
  EXPECT_FALSE(scheme.holds(g));
  const auto variants = tampered_variants(
      [] {
        Graph h = gen::cycle(5);
        h.set_label(2, kLeaderFlag);
        return LeaderElectionScheme().prove(h).value();
      }(),
      60, 3);
  for (const Proof& p : variants) {
    EXPECT_TRUE(rejected(g, p, scheme.verifier()));
  }
}

TEST(LeaderElection, ProofSizeLogarithmic) {
  const LeaderElectionScheme scheme;
  Graph small = gen::cycle(8);
  small.set_label(0, kLeaderFlag);
  Graph large = gen::cycle(256);
  large.set_label(0, kLeaderFlag);
  const int s = scheme.prove(small)->size_bits();
  const int l = scheme.prove(large)->size_bits();
  EXPECT_LT(l, 2 * s);  // log growth, not linear
  EXPECT_LE(l, 15 + 4 * 9);
}

Graph with_spanning_tree_labels(Graph g, std::uint32_t seed) {
  // Label a BFS tree from a seeded node.
  const RootedTree tree = bfs_tree(g, static_cast<int>(seed) % g.n());
  for (int v = 0; v < g.n(); ++v) {
    if (v == tree.root) continue;
    const int e = g.edge_index(v, tree.parent[static_cast<std::size_t>(v)]);
    g.set_edge_label(e, SpanningTreeScheme::kTreeEdgeBit);
  }
  return g;
}

TEST(SpanningTree, CompletenessOnFamilies) {
  const SpanningTreeScheme scheme;
  for (std::uint32_t seed = 0; seed < 3; ++seed) {
    for (Graph g : connected_family(static_cast<int>(seed))) {
      g = with_spanning_tree_labels(std::move(g), seed);
      EXPECT_TRUE(scheme.holds(g));
      EXPECT_TRUE(scheme_accepts_own_proof(scheme, g));
    }
  }
}

TEST(SpanningTree, NonTreeEdgeSetsRejected) {
  const SpanningTreeScheme scheme;
  // All edges of a cycle labelled: n edges, not a tree.
  Graph g = gen::cycle(7);
  for (int e = 0; e < g.m(); ++e) {
    g.set_edge_label(e, SpanningTreeScheme::kTreeEdgeBit);
  }
  EXPECT_FALSE(scheme.holds(g));
  // Try honest proofs of related yes-instances as adversarial proofs.
  Graph yes = gen::cycle(7);
  for (int e = 1; e < yes.m(); ++e) {
    yes.set_edge_label(e, SpanningTreeScheme::kTreeEdgeBit);
  }
  const auto p = scheme.prove(yes);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(rejected(g, *p, scheme.verifier()));
}

TEST(SpanningTree, TwoComponentsOfLabelsRejected) {
  // Two disjoint labelled paths inside one cycle: right count is n-1?
  // No: 2 missing edges -> n-2 labelled, holds() false; the verifier must
  // reject any transplanted proof (this is the Section 5.4 scenario).
  const SpanningTreeScheme scheme;
  Graph g = gen::cycle(8);
  for (int e = 0; e < g.m(); ++e) {
    if (e != 2 && e != 6) {
      g.set_edge_label(e, SpanningTreeScheme::kTreeEdgeBit);
    }
  }
  EXPECT_FALSE(scheme.holds(g));
  const auto honest = scheme.prove(with_spanning_tree_labels(gen::cycle(8), 0));
  for (const Proof& p : tampered_variants(*honest, 60, 5)) {
    EXPECT_TRUE(rejected(g, p, scheme.verifier()));
  }
}

TEST(Parity, OddAndEvenSchemes) {
  for (Graph g : connected_family(0)) {
    const bool odd = g.n() % 2 == 1;
    EXPECT_TRUE(scheme_accepts_own_proof(ParityScheme(odd), g)) << g.n();
    EXPECT_FALSE(ParityScheme(!odd).holds(g));
    EXPECT_FALSE(ParityScheme(!odd).prove(g).has_value());
  }
}

TEST(Parity, WrongParityProofTransplantRejected) {
  const ParityScheme odd(true);
  const Graph even_cycle = gen::cycle(8);
  const auto honest_odd = odd.prove(gen::cycle(7));
  ASSERT_TRUE(honest_odd.has_value());
  // An 8-cycle given the 7-cycle's proof: lengths differ, must reject.
  Proof padded = Proof::empty(8);
  for (int v = 0; v < 7; ++v) {
    padded.labels[static_cast<std::size_t>(v)] =
        honest_odd->labels[static_cast<std::size_t>(v)];
  }
  padded.labels[7] = honest_odd->labels[6];
  EXPECT_TRUE(rejected(even_cycle, padded, odd.verifier()));
}

TEST(Acyclic, ForestsAcceptedCyclesRejected) {
  const AcyclicScheme scheme;
  EXPECT_TRUE(scheme_accepts_own_proof(scheme, gen::random_tree(10, 1)));
  EXPECT_TRUE(scheme_accepts_own_proof(
      scheme, gen::disjoint_union(gen::path(4), gen::random_tree(5, 2))));
  EXPECT_FALSE(scheme.holds(gen::cycle(6)));
  // 7-bit labels cover every width-1 distance labelling of the triangle.
  EXPECT_FALSE(exists_accepted_proof(gen::cycle(3), scheme.verifier(), 7));
}

TEST(Acyclic, TruncatedVariantIsFooledByLongCycles) {
  // The b-bit acyclicity verifier accepts a 2^b-multiple cycle with
  // wrapped distance labels: the direct Theta(log n) separation.
  const int b = 3;
  const AcyclicScheme trunc(b);
  const Graph cycle = gen::cycle(16);  // 16 = 2 * 2^3
  Proof p = Proof::empty(16);
  for (int v = 0; v < 16; ++v) {
    p.labels[static_cast<std::size_t>(v)].append_uint(
        static_cast<std::uint64_t>(b), 6);
    p.labels[static_cast<std::size_t>(v)].append_uint(
        static_cast<std::uint64_t>(v % (1 << b)), b);
  }
  EXPECT_FALSE(trunc.holds(cycle));
  EXPECT_TRUE(default_engine().run(cycle, p, trunc.verifier()).all_accept)
      << "the truncated scheme should be unsound here";
  // While the honest scheme rejects every tamper we can throw at it.
  const AcyclicScheme honest;
  EXPECT_TRUE(rejected(cycle, p, honest.verifier()));
}

TEST(NonBipartite, OddCycleCertified) {
  const NonBipartiteScheme scheme;
  EXPECT_TRUE(scheme_accepts_own_proof(scheme, gen::cycle(7)));
  EXPECT_TRUE(scheme_accepts_own_proof(scheme, gen::petersen()));
  EXPECT_TRUE(scheme_accepts_own_proof(scheme, gen::complete(5)));
  // Odd cycle with trees hanging off it.
  Graph g = gen::cycle(5);
  const int extra = g.add_node(50);
  g.add_edge(0, extra);
  const int extra2 = g.add_node(51);
  g.add_edge(extra, extra2);
  EXPECT_TRUE(scheme_accepts_own_proof(scheme, g));
}

TEST(NonBipartite, BipartiteInstancesRejected) {
  const NonBipartiteScheme scheme;
  EXPECT_FALSE(scheme.holds(gen::cycle(6)));
  EXPECT_FALSE(scheme.holds(gen::grid(3, 3)));
  const auto honest = scheme.prove(gen::cycle(7));
  ASSERT_TRUE(honest.has_value());
  // Odd-cycle proof transplanted onto an extended even cycle.
  Proof padded = Proof::empty(8);
  for (int v = 0; v < 7; ++v) {
    padded.labels[static_cast<std::size_t>(v)] =
        honest->labels[static_cast<std::size_t>(v)];
  }
  padded.labels[7] = honest->labels[3];
  EXPECT_TRUE(rejected(gen::cycle(8), padded, scheme.verifier()));
  for (const Proof& p : tampered_variants(*honest, 40, 11)) {
    EXPECT_TRUE(rejected(gen::cycle(6),
                         [&p] {
                           Proof q = Proof::empty(6);
                           for (int v = 0; v < 6; ++v) {
                             q.labels[static_cast<std::size_t>(v)] =
                                 p.labels[static_cast<std::size_t>(v)];
                           }
                           return q;
                         }(),
                         scheme.verifier()));
  }
}

Graph labeled_hamiltonian_cycle(int n) {
  Graph g = gen::cycle(n);
  for (int e = 0; e < g.m(); ++e) {
    g.set_edge_label(e, HamiltonianCycleScheme::kCycleEdgeBit);
  }
  // Add unlabelled chords so the cycle is a strict subgraph.
  if (n >= 6) g.add_edge(0, n / 2);
  return g;
}

TEST(HamiltonianCycle, CompletenessWithChords) {
  const HamiltonianCycleScheme scheme;
  for (int n : {5, 6, 9, 12}) {
    const Graph g = labeled_hamiltonian_cycle(n);
    EXPECT_TRUE(scheme.holds(g));
    EXPECT_TRUE(scheme_accepts_own_proof(scheme, g)) << n;
  }
}

TEST(HamiltonianCycle, TwoDisjointCyclesRejected) {
  // Two labelled 4-cycles joined by an unlabelled bridge: every node has
  // two labelled edges but the structure is not one Hamiltonian cycle.
  Graph g;
  for (int i = 1; i <= 8; ++i) g.add_node(static_cast<NodeId>(i));
  const std::uint64_t bit = HamiltonianCycleScheme::kCycleEdgeBit;
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      g.add_edge(base + i, base + (i + 1) % 4, bit);
    }
  }
  g.add_edge(0, 4);  // unlabelled bridge keeps it connected
  const HamiltonianCycleScheme scheme;
  EXPECT_FALSE(scheme.holds(g));
  // Transplant: stitch two honest 4-cycle proofs.
  Graph c4 = gen::cycle(4);
  for (int e = 0; e < 4; ++e) c4.set_edge_label(e, bit);
  const auto p4 = scheme.prove(c4);
  ASSERT_TRUE(p4.has_value());
  Proof stitched = Proof::empty(8);
  for (int v = 0; v < 4; ++v) {
    stitched.labels[static_cast<std::size_t>(v)] =
        p4->labels[static_cast<std::size_t>(v)];
    stitched.labels[static_cast<std::size_t>(v + 4)] =
        p4->labels[static_cast<std::size_t>(v)];
  }
  EXPECT_TRUE(rejected(g, stitched, scheme.verifier()));
}

TEST(HamiltonianPath, CompletenessAndEndpointChecks) {
  const HamiltonianPathScheme scheme;
  Graph g = gen::grid(2, 4);  // snake path exists
  // Label a snake: 0-1-2-3-7-6-5-4.
  const int order[] = {0, 1, 2, 3, 7, 6, 5, 4};
  for (int i = 0; i + 1 < 8; ++i) {
    g.set_edge_label(g.edge_index(order[i], order[i + 1]),
                     HamiltonianPathScheme::kPathEdgeBit);
  }
  EXPECT_TRUE(scheme.holds(g));
  EXPECT_TRUE(scheme_accepts_own_proof(scheme, g));
  for (const Proof& p : tampered_variants(*scheme.prove(g), 60, 13)) {
    // Tampers either remain valid proofs (possible: another witness) or
    // get rejected; a rejected *yes*-instance is fine, but acceptance of
    // the broken labelled path below is not.
    (void)p;
  }
  // Break the path labels: drop one edge.
  Graph broken = g;
  broken.set_edge_label(broken.edge_index(3, 7), 0);
  EXPECT_FALSE(scheme.holds(broken));
  EXPECT_TRUE(rejected(broken, *scheme.prove(g), scheme.verifier()));
}

Graph labeled_max_matching_cycle(int n) {
  Graph g = gen::cycle(n);
  for (int i = 1; i + 1 < n; i += 2) {
    g.set_edge_label(g.edge_index(i, i + 1),
                     MaxMatchingCycleScheme::kMatchedBit);
  }
  return g;
}

TEST(MaxMatchingCycle, OddAndEvenCompleteness) {
  const MaxMatchingCycleScheme scheme;
  for (int n : {4, 6, 5, 9, 11}) {
    Graph g = n % 2 == 0 ? gen::cycle(n) : labeled_max_matching_cycle(n);
    if (n % 2 == 0) {
      // Perfect matching: edges (0,1), (2,3), ...
      for (int i = 0; i < n; i += 2) {
        g.set_edge_label(g.edge_index(i, i + 1),
                         MaxMatchingCycleScheme::kMatchedBit);
      }
    }
    EXPECT_TRUE(scheme.holds(g)) << n;
    EXPECT_TRUE(scheme_accepts_own_proof(scheme, g)) << n;
  }
}

TEST(MaxMatchingCycle, SubOptimalMatchingRejected) {
  const MaxMatchingCycleScheme scheme;
  // 8-cycle with only 3 matched edges (max is 4).
  Graph g = gen::cycle(8);
  for (int i : {0, 2, 4}) {
    g.set_edge_label(g.edge_index(i, i + 1),
                     MaxMatchingCycleScheme::kMatchedBit);
  }
  EXPECT_FALSE(scheme.holds(g));
  EXPECT_TRUE(rejected(g, Proof::empty(8), scheme.verifier()));
  // With a forged odd-n certificate rooted at one unmatched node.
  const auto honest = scheme.prove(labeled_max_matching_cycle(7));
  Proof padded = Proof::empty(8);
  for (int v = 0; v < 7; ++v) {
    padded.labels[static_cast<std::size_t>(v)] =
        honest->labels[static_cast<std::size_t>(v)];
  }
  padded.labels[7] = honest->labels[5];
  EXPECT_TRUE(rejected(g, padded, scheme.verifier()));
}

// ------------------------------------------------------------ decode scope --
//
// The tree-certified verifiers decode only the certificates of the centre
// and its neighbours.  Each reference below decodes every ball member and
// then applies the same checks, as the verifiers did before; on every view
// of honest and tampered proofs the verdicts must agree.

std::vector<std::optional<TreeCert>> decode_every_member(const View& v) {
  std::vector<std::optional<TreeCert>> certs;
  for (const BitString& label : v.proofs) {
    BitReader r(label);
    certs.push_back(read_tree_cert(r));
  }
  return certs;
}

bool reference_leader(const View& v, int trunc_bits) {
  const auto certs = decode_every_member(v);
  if (!check_tree_cert_at_center(v, certs, trunc_bits)) return false;
  return cert_says_root(*certs[static_cast<std::size_t>(v.center)]) ==
         (v.ball.label(v.center) == kLeaderFlag);
}

bool reference_spanning_tree(const View& v, int trunc_bits) {
  const auto certs = decode_every_member(v);
  if (!check_tree_cert_at_center(v, certs, trunc_bits)) return false;
  const Graph& ball = v.ball;
  const int c = v.center;
  const TreeCert& mine = *certs[static_cast<std::size_t>(c)];
  for (const HalfEdge& h : ball.neighbors(c)) {
    const TreeCert& other = *certs[static_cast<std::size_t>(h.to)];
    const bool is_parent_edge =
        !cert_says_root(mine) &&
        ball.neighbor_at_port(c, mine.parent_port) == h.to;
    const bool is_child_edge =
        !cert_says_root(other) && other.parent_port >= 0 &&
        other.parent_port < ball.degree(h.to) &&
        ball.neighbor_at_port(h.to, other.parent_port) == c;
    const bool labelled =
        (ball.edge_label(h.edge) & SpanningTreeScheme::kTreeEdgeBit) != 0;
    if (labelled != (is_parent_edge || is_child_edge)) return false;
  }
  return true;
}

bool reference_parity(const View& v, int trunc_bits, bool want_odd) {
  const auto certs = decode_every_member(v);
  if (!check_tree_cert_at_center(v, certs, trunc_bits)) return false;
  const TreeCert& mine = *certs[static_cast<std::size_t>(v.center)];
  return !cert_says_root(mine) || (mine.total % 2 == 1) == want_odd;
}

struct ScopeCase {
  std::shared_ptr<Scheme> scheme;
  std::function<bool(const View&)> reference;
};

std::vector<ScopeCase> scope_cases() {
  std::vector<ScopeCase> cases;
  for (int b : {0, 4}) {
    cases.push_back({std::make_shared<LeaderElectionScheme>(b),
                     [b](const View& v) { return reference_leader(v, b); }});
    cases.push_back(
        {std::make_shared<SpanningTreeScheme>(b),
         [b](const View& v) { return reference_spanning_tree(v, b); }});
    for (bool odd : {false, true}) {
      cases.push_back(
          {std::make_shared<ParityScheme>(odd, b),
           [b, odd](const View& v) { return reference_parity(v, b, odd); }});
    }
  }
  return cases;
}

/// A random connected graph carrying a leader flag and a labelled BFS
/// spanning tree, so every scheme in scope_cases() can prove it whenever
/// its property holds.
Graph scope_graph(std::uint32_t seed) {
  Graph g = gen::random_connected(18 + static_cast<int>(seed % 7), 0.2, seed);
  g.set_label(static_cast<int>(seed) % g.n(), kLeaderFlag);
  const RootedTree tree = bfs_tree(g, 0);
  for (int v = 1; v < g.n(); ++v) {
    g.set_edge_label(g.edge_index(v, tree.parent[static_cast<std::size_t>(v)]),
                     SpanningTreeScheme::kTreeEdgeBit);
  }
  return g;
}

int host_index(const Graph& g, NodeId id) {
  for (int v = 0; v < g.n(); ++v) {
    if (g.id(v) == id) return v;
  }
  return -1;
}

/// Every view of (g, p) gets the same verdict from the scheme and from the
/// decode-everything reference; returns the verdict at `center`.
bool verdicts_agree_everywhere(const Graph& g, const Proof& p,
                               const ScopeCase& sc, int center) {
  bool at_center = false;
  for (int v = 0; v < g.n(); ++v) {
    const View view = extract_view(g, p, v, 2);
    const bool got = sc.scheme->verifier().accept(view);
    EXPECT_EQ(got, sc.reference(view))
        << sc.scheme->name() << " at node " << v;
    if (v == center) at_center = got;
  }
  return at_center;
}

TEST(DecodeScope, MatchesDecodeEverythingReference) {
  std::mt19937_64 rng(4242);
  int far_tampers = 0;
  int near_tampers = 0;
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const Graph g = scope_graph(seed);
    for (const ScopeCase& sc : scope_cases()) {
      const auto honest = sc.scheme->prove(g);
      if (!honest.has_value()) continue;  // parity of the other side
      EXPECT_TRUE(verdicts_agree_everywhere(g, *honest, sc, 0));
      for (int round = 0; round < 6; ++round) {
        const int center =
            static_cast<int>(rng() % static_cast<unsigned>(g.n()));
        const View view = extract_view(g, *honest, center, 2);
        for (int i = 0; i < view.ball.n(); ++i) {
          const int host = host_index(g, view.ball.id(i));
          const BitString& label =
              honest->labels[static_cast<std::size_t>(host)];
          Proof truncated = *honest;
          truncated.labels[static_cast<std::size_t>(host)] =
              BitReader(label).read_bits(static_cast<int>(
                  rng() % static_cast<unsigned>(label.size())));
          Proof garbage = *honest;
          BitString noise;
          const int noise_bits = static_cast<int>(rng() % 120);
          for (int k = 0; k < noise_bits; k += 40) {
            noise.append_uint(rng(), std::min(40, noise_bits - k));
          }
          garbage.labels[static_cast<std::size_t>(host)] = noise;
          const bool t = verdicts_agree_everywhere(g, truncated, sc, center);
          const bool n = verdicts_agree_everywhere(g, garbage, sc, center);
          if (view.dist_of(i) == 2) {
            // Never decoded by the centre: both tampers go unnoticed there.
            EXPECT_TRUE(t) << sc.scheme->name();
            EXPECT_TRUE(n) << sc.scheme->name();
            ++far_tampers;
          } else {
            EXPECT_FALSE(t) << sc.scheme->name();  // truncation never parses
            ++near_tampers;
          }
        }
      }
    }
  }
  EXPECT_GT(far_tampers, 100);
  EXPECT_GT(near_tampers, 100);
}

}  // namespace
}  // namespace lcp::schemes
