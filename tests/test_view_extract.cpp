// ViewExtractor's one-pass ball assembly against the plain construction:
// add_node for every member in BFS order, then add_edge for every
// member-member edge from its smaller-ball-index endpoint, in that
// endpoint's adjacency order.  The two must be bit-identical
// (views_bit_identical) for every centre and radius, on graphs with
// shuffled ids, edge labels and weights, and direction masks; and the
// extracted ball must keep working as a Graph (id index, patching).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/view.hpp"
#include "graph/directed.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"

namespace lcp {
namespace {

View constructed_view(const Graph& g, const Proof& p, int v, int radius) {
  std::vector<int> dist;
  const std::vector<int> order = ball_nodes(g, v, radius, dist);
  std::vector<int> position(static_cast<std::size_t>(g.n()), -1);
  View view;
  view.radius = radius;
  view.center = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int u = order[i];
    position[static_cast<std::size_t>(u)] = static_cast<int>(i);
    view.ball.add_node(g.id(u), g.label(u));
    view.proofs.push_back(p.labels[static_cast<std::size_t>(u)]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const HalfEdge& h : g.neighbors(order[i])) {
      if (position[static_cast<std::size_t>(h.to)] <= static_cast<int>(i)) {
        continue;
      }
      view.ball.add_edge(position[static_cast<std::size_t>(g.edge_u(h.edge))],
                         position[static_cast<std::size_t>(g.edge_v(h.edge))],
                         g.edge_label(h.edge), g.edge_weight(h.edge));
    }
  }
  view.dist = dist;
  return view;
}

Proof random_proof(const Graph& g, std::mt19937& rng) {
  Proof p = Proof::empty(g.n());
  for (BitString& label : p.labels) {
    label.append_uint(rng(), static_cast<int>(rng() % 40));
  }
  return p;
}

void label_edges(Graph& g, std::mt19937& rng) {
  for (int e = 0; e < g.m(); ++e) {
    g.set_edge_label(e, rng() % 8);
    g.set_edge_weight(e, static_cast<std::int64_t>(rng() % 1000) - 500);
  }
}

/// Extracts every view at radii 1-3 and compares it with the plain
/// construction; also checks host_out and that the extracted ball answers
/// index_of for its members and for an absent id.
void expect_all_views_identical(const Graph& g, const Proof& p,
                                const std::string& name) {
  ViewExtractor extractor(g);
  for (int radius = 1; radius <= 3; ++radius) {
    for (int v = 0; v < g.n(); ++v) {
      std::vector<int> host;
      const View got = extractor.extract(p, v, radius, &host);
      const View want = constructed_view(g, p, v, radius);
      ASSERT_TRUE(views_bit_identical(got, want))
          << name << " centre " << v << " radius " << radius;
      ASSERT_EQ(host.size(), static_cast<std::size_t>(got.ball.n()));
      for (int b = 0; b < got.ball.n(); ++b) {
        ASSERT_EQ(g.id(host[static_cast<std::size_t>(b)]), got.ball.id(b));
        ASSERT_EQ(got.ball.index_of(got.ball.id(b)), b);
      }
      ASSERT_FALSE(got.ball.index_of(g.max_id() + 1).has_value());
    }
  }
}

TEST(ViewExtract, MatchesConstructionOnShuffledLabelledGraphs) {
  std::mt19937 rng(2024);
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    Graph g = gen::shuffle_ids(gen::random_sparse_connected(60, 45, seed),
                               seed + 100);
    label_edges(g, rng);
    for (int v = 0; v < g.n(); v += 7) g.set_label(v, rng() % 3);
    expect_all_views_identical(g, random_proof(g, rng),
                               "sparse seed " + std::to_string(seed));
  }
  Graph grid = gen::shuffle_ids(gen::grid(6, 7), 5);
  label_edges(grid, rng);
  expect_all_views_identical(grid, random_proof(grid, rng), "grid");
  Graph dense = gen::shuffle_ids(gen::random_connected(24, 0.3, 9), 11);
  label_edges(dense, rng);
  expect_all_views_identical(dense, random_proof(dense, rng), "dense");
}

TEST(ViewExtract, MatchesConstructionOnDirectedMasks) {
  // Arc directions live in the edge label relative to (edge_u, edge_v), so
  // endpoint order must survive extraction.
  std::mt19937 rng(7);
  Graph g = gen::with_ids(gen::random_sparse_connected(40, 0, 3), [] {
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < 40; ++i) ids.push_back(1000 - 17 * i);
    return ids;
  }());
  for (int e = 0; e < g.m(); ++e) g.set_edge_label(e, 0);
  for (int e = 0; e < g.m(); ++e) {
    const int u = g.edge_u(e);
    const int v = g.edge_v(e);
    if (rng() % 2 == 0) directed::add_arc(g, u, v);
    if (rng() % 3 == 0) directed::add_arc(g, v, u);
  }
  for (int i = 0; i < 15; ++i) {
    const int u = static_cast<int>(rng() % 40);
    const int v = static_cast<int>(rng() % 40);
    if (u != v) directed::add_arc(g, u, v);
  }
  const Proof p = random_proof(g, rng);
  expect_all_views_identical(g, p, "directed");
  ViewExtractor extractor(g);
  for (int v = 0; v < g.n(); ++v) {
    std::vector<int> host;
    const View view = extractor.extract(p, v, 2, &host);
    for (int a = 0; a < view.ball.n(); ++a) {
      for (int b = 0; b < view.ball.n(); ++b) {
        if (a == b) continue;
        ASSERT_EQ(directed::has_arc(view.ball, a, b),
                  directed::has_arc(g, host[static_cast<std::size_t>(a)],
                                    host[static_cast<std::size_t>(b)]));
      }
    }
  }
}

TEST(ViewExtract, ExtractedBallStaysMutable) {
  // Patching splices edges into extracted balls; the one-pass layout must
  // behave like a constructed graph under the same mutations.
  std::mt19937 rng(3);
  Graph g = gen::shuffle_ids(gen::random_sparse_connected(50, 40, 4), 8);
  label_edges(g, rng);
  const Proof p = random_proof(g, rng);
  ViewExtractor extractor(g);
  for (int v = 0; v < g.n(); ++v) {
    View got = extractor.extract(p, v, 2);
    View want = constructed_view(g, p, v, 2);
    const int k = got.ball.n();
    if (k < 3) continue;
    for (int step = 0; step < 6; ++step) {
      const int a = static_cast<int>(rng() % static_cast<unsigned>(k));
      const int b = static_cast<int>(rng() % static_cast<unsigned>(k));
      if (a == b) continue;
      if (got.ball.has_edge(a, b)) {
        got.ball.remove_edge_stable(a, b);
        want.ball.remove_edge_stable(a, b);
      } else {
        const int slot =
            static_cast<int>(rng() % static_cast<unsigned>(got.ball.m() + 1));
        got.ball.insert_edge_at(slot, a, b, 4, 4);
        want.ball.insert_edge_at(slot, a, b, 4, 4);
      }
      ASSERT_TRUE(views_bit_identical(got, want)) << "centre " << v;
    }
    const Graph copy = got.ball;
    ASSERT_TRUE(graphs_bit_identical(copy, want.ball));
  }
}

TEST(ViewExtract, RebindAfterHostGrows) {
  std::mt19937 rng(5);
  Graph g = gen::cycle(12);
  const Proof p = random_proof(g, rng);
  ViewExtractor extractor(g);
  ASSERT_TRUE(views_bit_identical(extractor.extract(p, 3, 2),
                                  constructed_view(g, p, 3, 2)));
  const int extra = g.add_node(500);
  g.add_edge(extra, 3, 9, 9);
  g.add_edge(extra, 7, 1, 2);
  const Proof grown = random_proof(g, rng);
  extractor.bind(g);
  for (int v = 0; v < g.n(); ++v) {
    ASSERT_TRUE(views_bit_identical(extractor.extract(grown, v, 3),
                                    constructed_view(g, grown, v, 3)))
        << "centre " << v;
  }
}

}  // namespace
}  // namespace lcp
