// Randomised mutation-sequence fuzz: random graphs x random schemes x
// 100+ random deltas (proof flips, node/edge relabels, edge insertions
// and removals, including churn right at ball boundaries), asserting after
// EVERY batch that IncrementalEngine's RunResult is bit-identical to a
// fresh sweep_sequential of the mutated state.
//
// The FourWay* tests run the same stream through the full configuration
// matrix — {view patching, re-extraction} x {pool-sharded, serial
// re-verification} — each on its own (graph, proof, tracker) replica, plus
// a fifth engine whose toggles flip randomly per batch, asserting
// bit-identical verdicts AND identical graph/state fingerprints across all
// replicas after every batch.  ChurnStreamMatrix drives the matrix with
// the preferential-attachment + sliding-window generator from bench/.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/churn_stream.hpp"
#include "core/delta.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "schemes/cycle_certified.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

BitString random_bits(std::mt19937& rng, int max_len) {
  std::uniform_int_distribution<int> len(0, max_len);
  std::uniform_int_distribution<int> bit(0, 1);
  BitString out;
  const int k = len(rng);
  for (int i = 0; i < k; ++i) out.append_bit(bit(rng) != 0);
  return out;
}

/// One random mutation appended to the batch; returns false when the
/// graph state offers no legal op of the drawn kind.
bool push_random_op(MutationBatch& batch, const Graph& g, std::mt19937& rng) {
  std::uniform_int_distribution<int> kind_dist(0, 5);
  std::uniform_int_distribution<int> node(0, g.n() - 1);
  switch (kind_dist(rng)) {
    case 0: {  // proof flip
      batch.set_proof_label(node(rng), random_bits(rng, 4));
      return true;
    }
    case 1: {  // node relabel
      std::uniform_int_distribution<int> label(0, 3);
      batch.set_node_label(node(rng), static_cast<std::uint64_t>(label(rng)));
      return true;
    }
    case 2: {  // edge relabel
      if (g.m() == 0) return false;
      std::uniform_int_distribution<int> edge(0, g.m() - 1);
      const int e = edge(rng);
      std::uniform_int_distribution<int> label(0, 3);
      batch.set_edge_label(g.edge_u(e), g.edge_v(e),
                           static_cast<std::uint64_t>(label(rng)));
      return true;
    }
    case 3: {  // edge weight
      if (g.m() == 0) return false;
      std::uniform_int_distribution<int> edge(0, g.m() - 1);
      const int e = edge(rng);
      std::uniform_int_distribution<int> weight(-3, 3);
      batch.set_edge_weight(g.edge_u(e), g.edge_v(e), weight(rng));
      return true;
    }
    case 4: {  // edge insertion
      for (int attempt = 0; attempt < 8; ++attempt) {
        const int u = node(rng);
        const int v = node(rng);
        if (u != v && !g.has_edge(u, v)) {
          batch.add_edge(u, v);
          return true;
        }
      }
      return false;
    }
    default: {  // edge removal (keep a few edges around)
      if (g.m() <= 2) return false;
      std::uniform_int_distribution<int> edge(0, g.m() - 1);
      const int e = edge(rng);
      batch.remove_edge(g.edge_u(e), g.edge_v(e));
      return true;
    }
  }
}

void expect_equal(const RunResult& expected, const RunResult& actual,
                  const std::string& context) {
  ASSERT_EQ(expected.all_accept, actual.all_accept) << context;
  ASSERT_EQ(expected.rejecting, actual.rejecting) << context;
}

void fuzz_scheme(const Scheme& scheme, Graph g, std::uint32_t seed,
                 int batches) {
  std::mt19937 rng(seed);
  Proof p = Proof::empty(g.n());
  if (const auto honest = scheme.prove(g); honest.has_value()) p = *honest;

  const int radius = scheme.verifier().radius();
  DeltaTracker tracker(g, p, radius);
  IncrementalEngine engine;
  ASSERT_TRUE(engine.attach_tracker(&tracker));

  expect_equal(sweep_sequential(g, p, scheme.verifier()),
               engine.run(g, p, scheme.verifier()),
               scheme.name() + "/initial");

  std::uniform_int_distribution<int> ops_per_batch(1, 4);
  for (int round = 0; round < batches; ++round) {
    // Ops are drawn against the current graph state, so each becomes its
    // own single-op batch; several batches pile up between runs, which
    // exercises the engine's multi-record merge exactly like one big
    // batch would.
    const int ops = ops_per_batch(rng);
    for (int i = 0; i < ops; ++i) {
      MutationBatch batch;
      if (push_random_op(batch, g, rng)) tracker.apply(batch);
    }
    expect_equal(
        sweep_sequential(g, p, scheme.verifier()),
        engine.run(g, p, scheme.verifier()),
        scheme.name() + "/round-" + std::to_string(round));
  }

  const auto& stats = engine.stats();
  EXPECT_GE(stats.incremental_runs, 1u) << scheme.name();
  engine.attach_tracker(nullptr);
}

TEST(IncrementalFuzz, BipartiteOnRandomGraphs) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    fuzz_scheme(schemes::BipartiteScheme(),
                gen::random_connected(24, 0.12, seed), seed, 120);
  }
}

TEST(IncrementalFuzz, LeaderElectionOnCycles) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    Graph g = gen::cycle(30);
    g.set_label(static_cast<int>(seed) * 3, schemes::kLeaderFlag);
    fuzz_scheme(schemes::LeaderElectionScheme(), std::move(g), seed + 10,
                120);
  }
}

TEST(IncrementalFuzz, ParityOnRandomGraphs) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    fuzz_scheme(schemes::ParityScheme(/*odd=*/true),
                gen::random_graph(20, 0.15, seed), seed + 20, 120);
  }
}

TEST(IncrementalFuzz, AcyclicRadiusTwoOnTrees) {
  // Radius-2 verifier: ball-membership changes two hops out.
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    fuzz_scheme(schemes::AcyclicScheme(), gen::random_tree(26, seed),
                seed + 30, 120);
  }
}

TEST(IncrementalFuzz, DenseGridWithHeavyChurn) {
  fuzz_scheme(schemes::BipartiteScheme(), gen::grid(5, 5), 99, 150);
}

// ---------------------------------------------------------------------------
// The patching x sharding matrix.
// ---------------------------------------------------------------------------

/// One engine configuration bound to its own replica of the mutated pair.
/// Heap-allocated: the tracker holds references into graph/proof, so the
/// lane's address must never move once constructed.
struct MatrixLane {
  std::string name;
  Graph graph;
  Proof proof;
  std::unique_ptr<DeltaTracker> tracker;
  std::unique_ptr<IncrementalEngine> engine;
};

std::unique_ptr<MatrixLane> make_lane(const std::string& name, const Graph& g,
                                      const Proof& p, int horizon,
                                      IncrementalEngineOptions options) {
  auto lane = std::make_unique<MatrixLane>();
  lane->name = name;
  lane->graph = g;
  lane->proof = p;
  lane->tracker =
      std::make_unique<DeltaTracker>(lane->graph, lane->proof, horizon);
  lane->engine = std::make_unique<IncrementalEngine>(std::move(options));
  EXPECT_TRUE(lane->engine->attach_tracker(lane->tracker.get()));
  return lane;
}

/// Replays one batch stream through all four {patch} x {shard} lanes plus a
/// per-batch random-toggle lane, checking bit-identical verdicts and
/// fingerprints against a fresh sweep_sequential after every batch.
/// `make_batch(it, g, &batch)` sees lane 0's graph; every lane applies the
/// identical batch, so the replicas evolve in lockstep.
template <typename MakeBatch>
void fuzz_matrix(const Scheme& scheme, const Graph& start, std::uint32_t seed,
                 int batches, MakeBatch&& make_batch) {
  Proof p0 = Proof::empty(start.n());
  if (const auto honest = scheme.prove(start); honest.has_value()) {
    p0 = *honest;
  }
  const int radius = scheme.verifier().radius();

  // shard_min_centers = 0 forces even tiny dirty sets onto the pool, so
  // the sharded lanes genuinely exercise it at fuzz sizes.
  std::vector<std::unique_ptr<MatrixLane>> lanes;
  lanes.push_back(make_lane("patch+serial", start, p0, radius,
                            {.patch_views = true, .shard_threads = 0}));
  lanes.push_back(make_lane("patch+shard", start, p0, radius,
                            {.patch_views = true,
                             .shard_threads = 3,
                             .shard_min_centers = 0}));
  lanes.push_back(make_lane("reextract+serial", start, p0, radius,
                            {.patch_views = false, .shard_threads = 0}));
  lanes.push_back(make_lane("reextract+shard", start, p0, radius,
                            {.patch_views = false,
                             .shard_threads = 3,
                             .shard_min_centers = 0}));
  lanes.push_back(make_lane("random-toggle", start, p0, radius,
                            {.shard_min_centers = 0}));
  std::mt19937 toggle_rng(seed * 7 + 1);
  for (int it = 0; it < batches; ++it) {
    MutationBatch batch;
    make_batch(it, static_cast<const Graph&>(lanes[0]->graph), &batch);
    if (batch.empty()) continue;

    lanes[4]->engine->set_patch_views(toggle_rng() % 2 == 0);
    lanes[4]->engine->set_shard_threads(toggle_rng() % 2 == 0 ? 3 : 0);

    const RunResult want = [&] {
      lanes[0]->tracker->apply(batch);
      return sweep_sequential(lanes[0]->graph, lanes[0]->proof, scheme.verifier());
    }();
    const std::uint64_t want_graph_fp = graph_fingerprint(lanes[0]->graph);
    const std::uint64_t want_state_fp =
        lanes[0]->tracker->state_fingerprint();
    ASSERT_EQ(want_state_fp, DeltaTracker::state_fingerprint_of(
                                 lanes[0]->graph, lanes[0]->proof))
        << "tracker fingerprint drift at batch " << it;

    for (std::size_t lane_idx = 0; lane_idx < lanes.size(); ++lane_idx) {
      MatrixLane& lane = *lanes[lane_idx];
      if (lane_idx > 0) lane.tracker->apply(batch);
      const RunResult got =
          lane.engine->run(lane.graph, lane.proof, scheme.verifier());
      ASSERT_EQ(want.all_accept, got.all_accept)
          << lane.name << " batch " << it;
      ASSERT_EQ(want.rejecting, got.rejecting) << lane.name << " batch " << it;
      ASSERT_EQ(want_graph_fp, graph_fingerprint(lane.graph))
          << lane.name << " batch " << it;
      ASSERT_EQ(want_state_fp, lane.tracker->state_fingerprint())
          << lane.name << " batch " << it;
    }
  }

  // The stream must actually have exercised both mechanisms.
  EXPECT_GT(lanes[0]->engine->stats().views_patched, 0u);
  EXPECT_GT(lanes[1]->engine->stats().sharded_rounds, 0u);
  EXPECT_GT(lanes[2]->engine->stats().reextractions, 0u);
  for (auto& lane : lanes) lane->engine->attach_tracker(nullptr);
}

TEST(IncrementalFuzz, FourWayMatrixBipartite) {
  std::mt19937 rng(424242);
  fuzz_matrix(schemes::BipartiteScheme(),
              gen::random_connected(22, 0.12, 5), 5, 110,
              [&rng](int, const Graph& g, MutationBatch* batch) {
                // One op per batch: later draws would need to see the
                // post-op graph, which they cannot inside one batch.
                for (int tries = 0; tries < 4 && batch->empty(); ++tries) {
                  (void)push_random_op(*batch, g, rng);
                }
              });
}

TEST(IncrementalFuzz, FourWayMatrixAcyclicRadiusTwo) {
  std::mt19937 rng(777);
  fuzz_matrix(schemes::AcyclicScheme(), gen::random_tree(24, 3), 7, 110,
              [&rng](int, const Graph& g, MutationBatch* batch) {
                (void)push_random_op(*batch, g, rng);
              });
}

TEST(IncrementalFuzz, FourWayMatrixConjunction) {
  // A composed scheme (core/compose.hpp) is a first-class Scheme: the
  // whole patching x sharding matrix must stay bit-identical under churn
  // when the verifier is a conjunction hosted at the max component radius
  // (bipartite r=1, acyclic r=2), including the random-proof ops that
  // tamper the concatenated labels.
  const auto scheme = builtin_registry().build("bipartite & acyclic");
  std::mt19937 rng(31415);
  fuzz_matrix(*scheme, gen::random_tree(22, 9), 13, 100,
              [&rng](int, const Graph& g, MutationBatch* batch) {
                (void)push_random_op(*batch, g, rng);
              });
}

TEST(IncrementalFuzz, ChurnStreamMatrix) {
  // Preferential attachment + sliding-window expiry (bench/churn_stream.hpp)
  // with occasional proof tampering layered on top; node growth, frontier
  // crossings, and window expiries all flow through the matrix.
  bench::ChurnStream stream({.grow_probability = 0.4,
                             .attach_edges = 2,
                             .churn_edges = 3,
                             .window = 8,
                             .seed = 99});
  std::mt19937 rng(2026);
  fuzz_matrix(schemes::BipartiteScheme(),
              gen::random_connected(20, 0.1, 11), 11, 90,
              [&](int it, const Graph& g, MutationBatch* batch) {
                stream.next(it, g, batch);
                if (rng() % 4 == 0 && g.n() > 0) {
                  batch->set_proof_label(
                      static_cast<int>(rng() % static_cast<unsigned>(g.n())),
                      random_bits(rng, 3));
                }
              });
}

}  // namespace
}  // namespace lcp
