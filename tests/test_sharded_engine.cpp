// ShardedEngine equivalence and isolation suite.
//
// The load-bearing property is bit-identity: on every (graph, proof,
// scheme) triple — honest, tampered, empty, composed — the sharded engine
// must produce the same verdict and the same ascending rejecting set as
// sweep_sequential, for every shard count (including non-powers-of-two and
// k > n), every partitioner (including a deliberately boundary-heavy one),
// and both the content path and the tracker path.  On top of identity, the
// isolation claims: an interior-only batch wakes exactly one lane and
// moves no halo traffic; boundary churn triggers halo rebuilds and still
// matches sweep_sequential on the final state.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/compose.hpp"
#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/sharded_engine.hpp"
#include "graph/generators.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

void expect_equal(const RunResult& expected, const RunResult& actual,
                  const std::string& label) {
  EXPECT_EQ(expected.all_accept, actual.all_accept) << label;
  EXPECT_EQ(expected.rejecting, actual.rejecting) << label;
}

/// Worst-case partition: node v to shard v % k, so on a path or cycle
/// every single edge crosses shards and every node carries a halo.
class StripedPartitioner final : public Partitioner {
 public:
  std::string name() const override { return "striped"; }
  void bind(const Graph& g, int shards) override {
    (void)g;
    shards_ = shards;
  }
  int owner(const Graph& g, int v) const override {
    (void)g;
    return v % shards_;
  }

 private:
  int shards_ = 1;
};

std::vector<std::pair<std::string, Graph>> corpus_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("cycle9", gen::cycle(9));
  graphs.emplace_back("grid3x4", gen::grid(3, 4));
  graphs.emplace_back("petersen", gen::petersen());
  graphs.emplace_back("tree12", gen::random_tree(12, 3));
  graphs.emplace_back("conn12", gen::random_connected(12, 0.25, 7));
  // Possibly disconnected: shards must agree off the happy path too.
  graphs.emplace_back("er10", gen::random_graph(10, 0.3, 5));
  return graphs;
}

struct ProofCase {
  std::string label;
  Proof proof;
};

std::vector<ProofCase> proof_cases(const Scheme& scheme, const Graph& g) {
  std::vector<ProofCase> out;
  const auto honest = scheme.prove(g);
  if (honest.has_value()) {
    out.push_back({"honest", *honest});
    int i = 0;
    for (const Proof& tampered : tampered_variants(*honest, 3, 11)) {
      out.push_back({"tampered" + std::to_string(i++), tampered});
    }
  }
  out.push_back({"empty", Proof::empty(g.n())});
  return out;
}

void check_scheme_everywhere(const Scheme& scheme,
                             const std::vector<ShardedEngineOptions>& configs,
                             const std::vector<std::string>& config_names) {
  std::vector<std::unique_ptr<ShardedEngine>> engines;
  for (const ShardedEngineOptions& options : configs) {
    engines.push_back(std::make_unique<ShardedEngine>(options));
  }
  for (auto& [glabel, g] : corpus_graphs()) {
    Graph graph = g;
    if (scheme.name() == "leader-election" && graph.n() > 0) {
      graph.set_label(graph.n() / 2, schemes::kLeaderFlag);
    }
    for (const ProofCase& pc : proof_cases(scheme, graph)) {
      const RunResult expected =
          sweep_sequential(graph, pc.proof, scheme.verifier());
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const std::string label = scheme.name() + "/" + glabel + "/" +
                                  pc.label + "/" + config_names[i];
        expect_equal(expected,
                     engines[i]->run(graph, pc.proof, scheme.verifier()),
                     label);
        // Second run: unchanged-state fast path must return the same.
        expect_equal(expected,
                     engines[i]->run(graph, pc.proof, scheme.verifier()),
                     label + "/repeat");
      }
    }
  }
}

std::vector<ShardedEngineOptions> standard_configs(
    std::vector<std::string>* names) {
  std::vector<ShardedEngineOptions> configs;
  for (int k : {1, 2, 4, 7}) {
    ShardedEngineOptions options;
    options.shards = k;
    configs.push_back(options);
    names->push_back("range" + std::to_string(k));
  }
  {
    ShardedEngineOptions options;
    options.shards = 3;
    options.partitioner = std::make_shared<HashPartitioner>();
    configs.push_back(options);
    names->push_back("hash3");
  }
  {
    ShardedEngineOptions options;
    options.shards = 4;
    options.partitioner = std::make_shared<StripedPartitioner>();
    configs.push_back(options);
    names->push_back("striped4");
  }
  return configs;
}

TEST(ShardedEquivalence, FullRegistryCorpus) {
  std::vector<std::string> names;
  const auto configs = standard_configs(&names);
  for (const std::string& scheme_name : builtin_registry().names()) {
    const auto scheme = builtin_registry().build(scheme_name);
    check_scheme_everywhere(*scheme, configs, names);
  }
}

TEST(ShardedEquivalence, ConjunctionScheme) {
  std::vector<std::string> names;
  const auto configs = standard_configs(&names);
  const auto conj =
      builtin_registry().build("leader-election & maximal-matching");
  check_scheme_everywhere(*conj, configs, names);
}

TEST(ShardedEquivalence, PaddedRadiusThree) {
  // radius_pad lifts the verifier horizon to 3: halos go three rounds
  // deep, crossing several stripe boundaries at once.
  std::vector<std::string> names;
  const auto configs = standard_configs(&names);
  const auto base = builtin_registry().build("bipartite");
  const auto padded = radius_pad(*base, 3);
  check_scheme_everywhere(*padded, configs, names);
}

TEST(ShardedEngine, HaloTrafficVisibleAndBounded) {
  const auto scheme = builtin_registry().build("bipartite");
  const Graph g = gen::cycle(32);
  const Proof p = *scheme->prove(g);

  ShardedEngineOptions lone;
  lone.shards = 1;
  ShardedEngine single(lone);
  ASSERT_TRUE(single.run(g, p, scheme->verifier()).all_accept);
  // One shard never has a fringe: zero ghost rows cross the transport.
  EXPECT_EQ(single.transport().stats().records, 0u);

  ShardedEngineOptions quad;
  quad.shards = 4;
  ShardedEngine sharded(quad);
  ASSERT_TRUE(sharded.run(g, p, scheme->verifier()).all_accept);
  const TransportStats stats = sharded.transport().stats();
  // A 32-cycle in 4 contiguous stripes at radius 1 has 8 boundary
  // endpoints: each stripe imports exactly its two fringe neighbours.
  EXPECT_EQ(stats.records, 8u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ShardedTracker, InteriorChurnWakesOneShard) {
  const auto scheme = builtin_registry().build("leader-election");
  Graph g = gen::cycle(64);
  g.set_label(3, schemes::kLeaderFlag);
  Proof p = *scheme->prove(g);
  const int radius = scheme->verifier().radius();
  DeltaTracker tracker(g, p, radius);

  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine engine(options);
  engine.attach_tracker(&tracker);

  ASSERT_TRUE(engine.run(g, p, scheme->verifier()).all_accept);
  const std::uint64_t records_before = engine.transport().stats().records;

  // Nodes 24..26 sit deep inside shard 1's stripe [16, 32); at radius 1
  // nothing within reach of another shard changes.
  MutationBatch batch;
  batch.remove_edge(24, 25);
  batch.add_edge(24, 25);
  batch.set_proof_label(26, p.labels[26]);
  tracker.apply(batch);

  const auto& stats = engine.stats();
  const std::uint64_t woken_before = stats.shards_woken;
  expect_equal(sweep_sequential(g, p, scheme->verifier()),
               engine.run(g, p, scheme->verifier()), "interior-churn");
  EXPECT_EQ(stats.shards_woken - woken_before, 1u);
  EXPECT_EQ(stats.halo_rebuilds, 0u);
  // Interior churn ships nothing: no requests, no records, no patches.
  EXPECT_EQ(engine.transport().stats().records, records_before);
}

TEST(ShardedTracker, BoundaryChurnRebuildsHalosAndMatches) {
  const auto scheme = builtin_registry().build("bipartite");
  Graph g = gen::cycle(40);
  Proof p = *scheme->prove(g);
  const int radius = scheme->verifier().radius();
  DeltaTracker tracker(g, p, radius);

  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine engine(options);
  engine.attach_tracker(&tracker);

  ASSERT_TRUE(engine.run(g, p, scheme->verifier()).all_accept);

  // A chord across the stripe boundary at node 10: both shard 0 and
  // shard 1 see their fringes move.
  MutationBatch batch;
  batch.add_edge(8, 12);
  tracker.apply(batch);
  expect_equal(sweep_sequential(g, p, scheme->verifier()),
               engine.run(g, p, scheme->verifier()), "boundary-add");
  EXPECT_GE(engine.stats().halo_rebuilds, 1u);

  MutationBatch undo;
  undo.remove_edge(8, 12);
  tracker.apply(undo);
  expect_equal(sweep_sequential(g, p, scheme->verifier()),
               engine.run(g, p, scheme->verifier()), "boundary-remove");
}

TEST(ShardedTracker, NodeGrowthAcrossShards) {
  const auto scheme = builtin_registry().build("acyclic");
  Graph g = gen::random_tree(24, 9);
  auto honest = scheme->prove(g);
  ASSERT_TRUE(honest.has_value());
  Proof p = std::move(*honest);
  const int radius = scheme->verifier().radius();
  DeltaTracker tracker(g, p, radius);

  ShardedEngineOptions options;
  options.shards = 3;
  ShardedEngine engine(options);
  engine.attach_tracker(&tracker);

  (void)engine.run(g, p, scheme->verifier());
  for (int round = 0; round < 4; ++round) {
    MutationBatch batch;
    batch.add_node(1000 + round);
    batch.add_edge(g.n(), 2 * round);  // attach the new node
    tracker.apply(batch);
    expect_equal(sweep_sequential(g, p, scheme->verifier()),
                 engine.run(g, p, scheme->verifier()),
                 "growth-round-" + std::to_string(round));
  }
}

TEST(ShardedTracker, FuzzAgainstDirect) {
  // Random structural + proof churn through a tracker, every round
  // cross-checked against sweep_sequential on the final state.  Both a
  // contiguous and a boundary-heavy partition run the same trace.
  const auto scheme = builtin_registry().build("bipartite");
  const int radius = scheme->verifier().radius();
  // Start from a tree so an honest proof exists; churn is free to break
  // bipartiteness later (engines are compared, not asserted accepting).
  Graph g = gen::random_tree(48, 17);
  Proof p = *scheme->prove(g);
  DeltaTracker tracker(g, p, radius);

  ShardedEngineOptions range_options;
  range_options.shards = 3;
  ShardedEngine range_engine(range_options);
  range_engine.attach_tracker(&tracker);

  ShardedEngineOptions striped_options;
  striped_options.shards = 4;
  striped_options.partitioner = std::make_shared<StripedPartitioner>();
  ShardedEngine striped_engine(striped_options);
  striped_engine.attach_tracker(&tracker);
  std::mt19937 rng(1234);

  (void)range_engine.run(g, p, scheme->verifier());
  (void)striped_engine.run(g, p, scheme->verifier());
  for (int round = 0; round < 40; ++round) {
    MutationBatch batch;
    // One structural op per batch (double-mutating the same edge inside a
    // batch is a tracker error), plus a couple of label/proof flips.
    const int u = static_cast<int>(rng() % g.n());
    const int v = static_cast<int>(rng() % g.n());
    switch (rng() % 5) {
      case 0:
        if (u != v && !g.has_edge(u, v)) batch.add_edge(u, v);
        break;
      case 1:
        if (g.has_edge(u, v)) batch.remove_edge(u, v);
        break;
      case 2:
        batch.set_node_label(u, rng() % 3);
        break;
      case 3:
        if (round % 7 == 0) {
          batch.add_node(5000 + round);
          batch.add_edge(g.n(), u);
        }
        break;
      case 4:
        break;  // proof-only round
    }
    const int flips = static_cast<int>(rng() % 3);
    for (int i = 0; i < flips; ++i) {
      BitString bits;
      bits.append_bit(rng() % 2 != 0);
      batch.set_proof_label(static_cast<int>(rng() % g.n()),
                            std::move(bits));
    }
    if (batch.empty()) continue;
    tracker.apply(batch);
    const RunResult expected = sweep_sequential(g, p, scheme->verifier());
    expect_equal(expected, range_engine.run(g, p, scheme->verifier()),
                 "fuzz-range-" + std::to_string(round));
    expect_equal(expected, striped_engine.run(g, p, scheme->verifier()),
                 "fuzz-striped-" + std::to_string(round));
  }
}

TEST(ShardedFactory, ParsesSpecs) {
  const auto scheme = builtin_registry().build("bipartite");
  const Graph g = gen::cycle(8);
  const Proof p = *scheme->prove(g);
  for (const char* spec : {"sharded", "sharded:1", "sharded:4",
                           "sharded:2:hash", "sharded:3:range"}) {
    const auto engine = make_engine(spec);
    ASSERT_NE(engine, nullptr) << spec;
    EXPECT_EQ(engine->name(), "sharded") << spec;
    EXPECT_TRUE(engine->run(g, p, scheme->verifier()).all_accept) << spec;
  }
  auto engine = make_engine("sharded:6:hash");
  auto* sharded = dynamic_cast<ShardedEngine*>(engine.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count(), 6);
  (void)sharded->run(g, p, scheme->verifier());
  EXPECT_EQ(sharded->partitioner().name(), "hash");

  EXPECT_THROW(make_engine("sharded:"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:0"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:x"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:2:mod"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:99999"), std::invalid_argument);
}

TEST(ShardedSession, ComposesWithMaintainers) {
  Graph g = gen::random_connected(30, 0.15, 3);
  g.set_label(0, schemes::kLeaderFlag);
  auto session = VerificationSession::on(std::move(g))
                     .scheme("leader-election")
                     .engine("sharded:3")
                     .maintain(true)
                     .build();
  ASSERT_TRUE(session.verify().all_accept);
  int added = 0;
  for (int round = 0; round < 120 && added < 5; ++round) {
    const int u = round % session.graph().n();
    const int v = (round * 7 + 11) % session.graph().n();
    if (u == v || session.graph().has_edge(u, v)) continue;
    MutationBatch batch;
    batch.add_edge(u, v);
    EXPECT_TRUE(session.apply(batch).all_accept) << round;
    ++added;
  }
  EXPECT_EQ(added, 5);
  EXPECT_TRUE(session.verify().all_accept);
}

TEST(ShardedSession, ConjunctionSchemeThroughSession) {
  Graph g = gen::cycle(24);
  auto session = VerificationSession::on(std::move(g))
                     .scheme("bipartite & even-n")
                     .engine("sharded:4")
                     .build();
  EXPECT_TRUE(session.verify().all_accept);
  MutationBatch batch;
  batch.add_edge(0, 12);  // chord: still bipartite (even cycle halves)
  const RunResult after = session.apply(batch);
  expect_equal(sweep_sequential(session.graph(), session.proof(),
                             session.scheme().verifier()),
               after, "session-conjunction");
}

TEST(ShardedEngine, OverflowFallsBackToPlainSweeps) {
  // A tiny ball budget forces the overflow path; verdicts must not change.
  const auto scheme = builtin_registry().build("bipartite");
  const Graph g = gen::complete_bipartite(6, 6);
  const Proof p = *scheme->prove(g);
  ShardedEngineOptions options;
  options.shards = 3;
  options.max_cached_ball_nodes = 8;
  ShardedEngine tiny(options);
  for (int round = 0; round < 3; ++round) {
    expect_equal(sweep_sequential(g, p, scheme->verifier()),
                 tiny.run(g, p, scheme->verifier()),
                 "overflow-round-" + std::to_string(round));
  }
}

}  // namespace
}  // namespace lcp
