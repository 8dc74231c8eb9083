// Graph storage against a naive model: random add_node / add_edge /
// remove_edge / remove_edge_stable / insert_edge_at sequences, each step
// checked for id-sorted adjacency, edge-index consistency, ports, the id
// index (present and absent ids), the duplicate-id throw, compaction of
// the pooled adjacency buffer, and copies taken after mutation.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lcp {
namespace {

/// The obvious representation: a node list and an ordered edge list, with
/// adjacency derived on demand.
struct ModelGraph {
  struct Edge {
    int u;
    int v;
    std::uint64_t label;
    std::int64_t weight;
  };
  std::vector<NodeId> ids;
  std::vector<std::uint64_t> labels;
  std::vector<Edge> edges;

  int find(int u, int v) const {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if ((edges[e].u == u && edges[e].v == v) ||
          (edges[e].u == v && edges[e].v == u)) {
        return static_cast<int>(e);
      }
    }
    return -1;
  }

  /// v's adjacency as (neighbour, edge) pairs sorted by neighbour id.
  std::vector<std::pair<int, int>> adjacency(int v) const {
    std::vector<std::pair<int, int>> out;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].u == v) out.emplace_back(edges[e].v, static_cast<int>(e));
      if (edges[e].v == v) out.emplace_back(edges[e].u, static_cast<int>(e));
    }
    std::sort(out.begin(), out.end(), [this](const auto& a, const auto& b) {
      return ids[static_cast<std::size_t>(a.first)] <
             ids[static_cast<std::size_t>(b.first)];
    });
    return out;
  }
};

void expect_matches(const Graph& g, const ModelGraph& model,
                    const std::vector<NodeId>& absent_ids,
                    const std::string& context) {
  ASSERT_EQ(g.n(), static_cast<int>(model.ids.size())) << context;
  ASSERT_EQ(g.m(), static_cast<int>(model.edges.size())) << context;
  ASSERT_GE(g.adjacency_pool_slots(), 2 * model.edges.size()) << context;
  for (int v = 0; v < g.n(); ++v) {
    const auto sv = static_cast<std::size_t>(v);
    ASSERT_EQ(g.id(v), model.ids[sv]) << context;
    ASSERT_EQ(g.label(v), model.labels[sv]) << context;
    ASSERT_EQ(g.index_of(model.ids[sv]), v) << context;
    const auto want = model.adjacency(v);
    const auto got = g.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << context << " node " << v;
    ASSERT_EQ(g.degree(v), static_cast<int>(want.size())) << context;
    for (std::size_t p = 0; p < want.size(); ++p) {
      ASSERT_EQ(got[p].to, want[p].first) << context << " node " << v;
      ASSERT_EQ(got[p].edge, want[p].second) << context << " node " << v;
      ASSERT_EQ(g.neighbor_at_port(v, static_cast<int>(p)), want[p].first);
      ASSERT_EQ(g.port_of(v, want[p].first), static_cast<int>(p));
    }
  }
  for (int e = 0; e < g.m(); ++e) {
    const ModelGraph::Edge& want = model.edges[static_cast<std::size_t>(e)];
    ASSERT_EQ(g.edge_u(e), want.u) << context;
    ASSERT_EQ(g.edge_v(e), want.v) << context;
    ASSERT_EQ(g.edge_label(e), want.label) << context;
    ASSERT_EQ(g.edge_weight(e), want.weight) << context;
    ASSERT_EQ(g.edge_index(want.u, want.v), e) << context;
    ASSERT_EQ(g.edge_index(want.v, want.u), e) << context;
  }
  // Absent pairs answer -1 / false.
  for (int u = 0; u < std::min(g.n(), 12); ++u) {
    for (int v = 0; v < std::min(g.n(), 12); ++v) {
      if (u == v || model.find(u, v) >= 0) continue;
      ASSERT_EQ(g.edge_index(u, v), -1) << context;
      ASSERT_FALSE(g.has_edge(u, v)) << context;
      ASSERT_EQ(g.port_of(u, v), -1) << context;
    }
  }
  for (NodeId id : absent_ids) {
    ASSERT_FALSE(g.index_of(id).has_value()) << context << " id " << id;
  }
}

/// Applies random operations to both g and the model, and draws ids the
/// model does not hold (the absent-id probes).
class OpSequence {
 public:
  OpSequence(std::uint32_t seed, int id_style)
      : rng_(seed), id_style_(id_style) {}

  NodeId fresh_id() {
    switch (id_style_) {
      case 0:  // sequential-ish small ids
        return static_cast<NodeId>(rng_() % 4096);
      case 1:  // ids that share their low 32 bits
        return (static_cast<NodeId>(rng_() % 512) << 32) | 7u;
      default:  // full 64-bit ids
        return (static_cast<NodeId>(rng_()) << 32) | rng_();
    }
  }

  void step(Graph& g, ModelGraph& model) {
    const int n = g.n();
    const unsigned pick = rng_() % 10;
    if (pick < 2 || n < 2) {
      const NodeId id = fresh_id();
      const std::uint64_t label = rng_() % 5;
      const bool duplicate =
          std::find(model.ids.begin(), model.ids.end(), id) !=
          model.ids.end();
      if (duplicate) {
        EXPECT_THROW(g.add_node(id, label), std::invalid_argument);
      } else {
        EXPECT_EQ(g.add_node(id, label), n);
        model.ids.push_back(id);
        model.labels.push_back(label);
      }
      return;
    }
    const int u = static_cast<int>(rng_() % static_cast<unsigned>(n));
    const int v = static_cast<int>(rng_() % static_cast<unsigned>(n));
    const int e = model.find(u, v);
    const std::uint64_t label = rng_() % 1000;
    const std::int64_t weight = static_cast<std::int64_t>(rng_() % 200) - 100;
    if (u == v || (e >= 0 && pick < 6)) {
      if (u == v) {
        EXPECT_THROW(g.add_edge(u, v), std::invalid_argument);
      } else {
        EXPECT_THROW(g.add_edge(u, v), std::invalid_argument);
        EXPECT_THROW(g.insert_edge_at(0, v, u), std::invalid_argument);
      }
      return;
    }
    if (e < 0) {
      if (pick < 7) {
        EXPECT_EQ(g.add_edge(u, v, label, weight),
                  static_cast<int>(model.edges.size()));
        model.edges.push_back({u, v, label, weight});
      } else {
        const int slot = static_cast<int>(
            rng_() % static_cast<unsigned>(model.edges.size() + 1));
        EXPECT_EQ(g.insert_edge_at(slot, u, v, label, weight), slot);
        model.edges.insert(model.edges.begin() + slot, {u, v, label, weight});
      }
      return;
    }
    if (pick < 8) {
      g.remove_edge(u, v);
      model.edges[static_cast<std::size_t>(e)] = model.edges.back();
      model.edges.pop_back();
    } else {
      g.remove_edge_stable(v, u);
      model.edges.erase(model.edges.begin() + e);
    }
  }

  std::vector<NodeId> absent_ids(const ModelGraph& model) {
    std::vector<NodeId> out;
    while (out.size() < 16) {
      const NodeId id = fresh_id();
      if (std::find(model.ids.begin(), model.ids.end(), id) ==
          model.ids.end()) {
        out.push_back(id);
      }
    }
    return out;
  }

 private:
  std::mt19937 rng_;
  int id_style_;
};

TEST(GraphStorage, RandomSequencesMatchModel) {
  for (int style = 0; style < 3; ++style) {
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      OpSequence ops(seed * 31 + static_cast<std::uint32_t>(style), style);
      Graph g;
      ModelGraph model;
      for (int step = 0; step < 400; ++step) {
        ops.step(g, model);
        if (step % 25 == 0 || step == 399) {
          expect_matches(g, model, ops.absent_ids(model),
                         "style " + std::to_string(style) + " seed " +
                             std::to_string(seed) + " step " +
                             std::to_string(step));
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(GraphStorage, DuplicateIdThrowsAndLeavesGraphIntact) {
  Graph g;
  for (NodeId id : {9u, 3u, 27u}) g.add_node(id, id);
  g.add_edge(0, 2, 5, 6);
  EXPECT_THROW(g.add_node(27), std::invalid_argument);
  EXPECT_THROW(g.add_node(9, 1), std::invalid_argument);
  ModelGraph model{{9, 3, 27}, {9, 3, 27}, {{0, 2, 5, 6}}};
  expect_matches(g, model, {0, 1, 4, 28}, "after duplicate throws");
  // Enough further nodes to grow the id index several times over.
  for (NodeId id = 100; id < 300; ++id) {
    g.add_node(id);
    model.ids.push_back(id);
    model.labels.push_back(0);
  }
  EXPECT_THROW(g.add_node(3), std::invalid_argument);
  EXPECT_THROW(g.add_node(299), std::invalid_argument);
  expect_matches(g, model, {0, 300, 1u << 20}, "after growth");
}

TEST(GraphStorage, ForcedCompactionKeepsEveryList) {
  // A hub whose list keeps outgrowing its slot while leaf-pair edges are
  // appended behind it: each move abandons the hub's old slot, so dead
  // slots pile up until the buffer is compacted (the pool shrinks).
  Graph g;
  ModelGraph model;
  constexpr int kLeaves = 300;
  for (int v = 0; v <= kLeaves; ++v) {
    const NodeId id = static_cast<NodeId>((v * 7919) % 1009 + 1);
    g.add_node(id);
    model.ids.push_back(id);
    model.labels.push_back(0);
  }
  bool compacted = false;
  std::size_t previous = g.adjacency_pool_slots();
  for (int v = 1; v <= kLeaves; ++v) {
    g.add_edge(0, v, static_cast<std::uint64_t>(v), v);
    model.edges.push_back({0, v, static_cast<std::uint64_t>(v), v});
    if (v + 1 <= kLeaves) {
      g.add_edge(v + 1, v, 1, 1);
      model.edges.push_back({v + 1, v, 1, 1});
    }
    const std::size_t now = g.adjacency_pool_slots();
    if (now < previous) compacted = true;
    previous = now;
  }
  EXPECT_TRUE(compacted);
  expect_matches(g, model, {0, 5000}, "after compaction");
  // Removals and splices still work on the compacted buffer.
  g.remove_edge(0, 17);
  model.edges[static_cast<std::size_t>(model.find(0, 17))] = model.edges.back();
  model.edges.pop_back();
  g.insert_edge_at(3, 17, 40, 2, 2);
  model.edges.insert(model.edges.begin() + 3, {17, 40, 2, 2});
  g.remove_edge_stable(0, 200);
  model.edges.erase(model.edges.begin() + model.find(0, 200));
  expect_matches(g, model, {0}, "mutations after compaction");
}

TEST(GraphStorage, CopiesAfterMutationAreIndependent) {
  OpSequence ops(77, 2);
  Graph g;
  ModelGraph model;
  for (int step = 0; step < 300; ++step) ops.step(g, model);
  const Graph copy = g;
  const ModelGraph copy_model = model;
  Graph assigned;
  assigned.add_node(123456);
  assigned = g;
  for (int step = 0; step < 300; ++step) ops.step(g, model);
  expect_matches(g, model, ops.absent_ids(model), "mutated original");
  expect_matches(copy, copy_model, ops.absent_ids(copy_model), "copy");
  expect_matches(assigned, copy_model, ops.absent_ids(copy_model),
                 "assigned");
  // The copy stays mutable on its own.
  Graph grown = copy;
  ModelGraph grown_model = copy_model;
  for (int step = 0; step < 200; ++step) ops.step(grown, grown_model);
  expect_matches(grown, grown_model, ops.absent_ids(grown_model),
                 "mutated copy");
  expect_matches(copy, copy_model, {}, "copy after its copy mutated");
}

TEST(GraphStorage, EmptyGraphAnswersAbsent) {
  const Graph g;
  EXPECT_EQ(g.n(), 0);
  EXPECT_FALSE(g.index_of(0).has_value());
  EXPECT_FALSE(g.index_of(42).has_value());
  EXPECT_EQ(g.adjacency_pool_slots(), 0u);
}

}  // namespace
}  // namespace lcp
