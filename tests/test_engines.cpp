// Engine equivalence corpus: SweepEngine (inline at one thread, pooled at
// four), MessagePassing, and Incremental engines must return bit-identical
// RunResults to the reference sweep_sequential — verdict AND rejecting-node
// sets — on random graphs, several schemes, honest proofs, and adversarial
// (tampered/empty) proofs.  The corpus mutates graphs and proofs
// arbitrarily between runs, so it exercises the IncrementalEngine's content
// path (full rebuilds, proof auto-diff, and unchanged-state reuse) without
// any tracker cooperation.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/checker.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/runner.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "local/message_passing.hpp"
#include "schemes/cycle_certified.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

struct Case {
  std::string label;
  Graph graph;
  Proof proof;
};

/// Honest, tampered, and empty proofs for one scheme on one graph.
std::vector<Case> cases_for(const Scheme& scheme, Graph g,
                            const std::string& label) {
  std::vector<Case> out;
  const auto honest = scheme.prove(g);
  if (honest.has_value()) {
    out.push_back({label + "/honest", g, *honest});
    for (const Proof& tampered : tampered_variants(*honest, 6, 11)) {
      out.push_back({label + "/tampered", g, tampered});
    }
  }
  out.push_back({label + "/empty", g, Proof::empty(g.n())});
  return out;
}

std::vector<Case> corpus(const Scheme& scheme) {
  std::vector<Case> all;
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("cycle9", gen::cycle(9));
  graphs.emplace_back("grid3x4", gen::grid(3, 4));
  graphs.emplace_back("petersen", gen::petersen());
  graphs.emplace_back("tree12", gen::random_tree(12, 3));
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    graphs.emplace_back("conn14-" + std::to_string(seed),
                        gen::random_connected(14, 0.25, seed));
    // Possibly disconnected: engines must agree off the happy path too.
    graphs.emplace_back("er10-" + std::to_string(seed),
                        gen::random_graph(10, 0.3, seed));
  }
  for (auto& [label, g] : graphs) {
    if (scheme.name() == "leader-election" && g.n() > 0) {
      g.set_label(g.n() / 2, schemes::kLeaderFlag);
    }
    auto cases = cases_for(scheme, g, scheme.name() + "/" + label);
    all.insert(all.end(), std::make_move_iterator(cases.begin()),
               std::make_move_iterator(cases.end()));
  }
  return all;
}

void expect_equal(const RunResult& expected, const RunResult& actual,
                  const std::string& engine, const std::string& label) {
  EXPECT_EQ(expected.all_accept, actual.all_accept)
      << engine << " on " << label;
  EXPECT_EQ(expected.rejecting, actual.rejecting)
      << engine << " on " << label;
}

void run_corpus(const Scheme& scheme) {
  SweepEngine direct(1);
  SweepEngine parallel4(4);
  MessagePassingEngine flooding;
  IncrementalEngine incremental;  // reused across cases
  for (const Case& c : corpus(scheme)) {
    const RunResult expected =
        sweep_sequential(c.graph, c.proof, scheme.verifier());
    expect_equal(expected, direct.run(c.graph, c.proof, scheme.verifier()),
                 "direct", c.label);
    expect_equal(expected, parallel4.run(c.graph, c.proof, scheme.verifier()),
                 "parallel-4", c.label);
    expect_equal(expected, flooding.run(c.graph, c.proof, scheme.verifier()),
                 "message-passing", c.label);
    expect_equal(expected,
                 incremental.run(c.graph, c.proof, scheme.verifier()),
                 "incremental", c.label);
    // Second run hits the unchanged-state path (cached verdicts).
    expect_equal(expected,
                 incremental.run(c.graph, c.proof, scheme.verifier()),
                 "incremental-unchanged", c.label);
  }
}

TEST(EngineEquivalence, Bipartite) { run_corpus(schemes::BipartiteScheme()); }

TEST(EngineEquivalence, NonBipartite) {
  run_corpus(schemes::NonBipartiteScheme());
}

TEST(EngineEquivalence, LeaderElection) {
  run_corpus(schemes::LeaderElectionScheme());
}

TEST(EngineEquivalence, Parity) {
  run_corpus(schemes::ParityScheme(/*odd=*/true));
}

TEST(EngineEquivalence, AcyclicRadiusTwo) {
  run_corpus(schemes::AcyclicScheme());
}

TEST(CachingEngine, InvalidatesOnGraphMutation) {
  // Same object, mutated between runs without a tracker: the content path
  // must catch node labels, edge labels, and structure.
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::random_connected(12, 0.25, 21);
  g.set_label(4, schemes::kLeaderFlag);
  const Proof p = *scheme.prove(g);

  IncrementalEngine cached;
  ASSERT_TRUE(cached.run(g, p, scheme.verifier()).all_accept);

  g.set_label(7, schemes::kLeaderFlag);  // second leader: proof now invalid
  const RunResult expected = sweep_sequential(g, p, scheme.verifier());
  const RunResult actual = cached.run(g, p, scheme.verifier());
  EXPECT_FALSE(actual.all_accept);
  EXPECT_EQ(expected.rejecting, actual.rejecting);

  Graph h = gen::cycle(12);
  h.set_label(0, schemes::kLeaderFlag);
  const Proof ph = *scheme.prove(h);
  expect_equal(sweep_sequential(h, ph, scheme.verifier()),
               cached.run(h, ph, scheme.verifier()), "incremental",
               "switch-to-new-graph");
}

TEST(DefaultEngine, ConcurrentCallersMatchReference) {
  // default_engine() is one process-wide instance that promises a
  // stateless, re-entrant run(): concurrent callers must neither race on
  // it (the ThreadSanitizer job runs this suite) nor see each other's
  // results.
  const schemes::BipartiteScheme scheme;
  const Graph g = gen::cycle(64);
  const Proof honest = *scheme.prove(g);
  const Proof tampered = tampered_variants(honest, 1, 5).front();
  const RunResult want_honest = sweep_sequential(g, honest, scheme.verifier());
  const RunResult want_tampered =
      sweep_sequential(g, tampered, scheme.verifier());
  ASSERT_NE(want_honest.all_accept, want_tampered.all_accept);

  constexpr int kThreads = 4;
  constexpr int kRuns = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) {
        // Alternate proofs so a leaked result would be visible.
        const bool tamper = (i + t) % 2 == 0;
        const RunResult got = default_engine().run(
            g, tamper ? tampered : honest, scheme.verifier());
        const RunResult& want = tamper ? want_tampered : want_honest;
        if (got.all_accept != want.all_accept ||
            got.rejecting != want.rejecting) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

TEST(EngineFactory, KnowsEveryBackend) {
  const schemes::BipartiteScheme scheme;
  const Graph g = gen::cycle(8);
  const Proof p = *scheme.prove(g);
  for (const char* name :
       {"direct", "message-passing", "parallel", "incremental"}) {
    const std::unique_ptr<ExecutionEngine> engine = make_engine(name);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
    EXPECT_TRUE(engine->run(g, p, scheme.verifier()).all_accept) << name;
  }
  EXPECT_EQ(SweepEngine(1).name(), "direct");
  EXPECT_EQ(SweepEngine(4).name(), "parallel");
  EXPECT_THROW(make_engine("quantum"), std::invalid_argument);
}

TEST(EngineFactory, RefusesRemovedShardedSpelling) {
  // "sharded[:K[:PART]]" names no backend: the factory and the session
  // builder refuse it like any unknown name.
  for (const char* name : {"sharded", "sharded:2", "sharded:4:hash"}) {
    EXPECT_THROW(make_engine(name), std::invalid_argument) << name;
  }
  EXPECT_THROW(make_engine("spotcheck:0.1:sharded:2"), std::invalid_argument);
  auto builder = VerificationSession::on(gen::cycle(8));
  EXPECT_THROW(builder.engine("sharded:2"), std::invalid_argument);
  EXPECT_THROW(builder.engine("sharded"), std::invalid_argument);
}

TEST(Engines, ExhaustiveSearchMatchesAcrossEngines) {
  // exists_accepted_proof through each engine: the nondeterministic
  // acceptance predicate itself is backend-independent.
  const LambdaVerifier two_col(1, [](const View& v) {
    const BitString& mine = v.proof_of(v.center);
    if (mine.size() != 1) return false;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      const BitString& other = v.proof_of(h.to);
      if (other.size() != 1 || other.bit(0) == mine.bit(0)) return false;
    }
    return true;
  });
  for (const char* name :
       {"direct", "message-passing", "parallel", "incremental"}) {
    const std::unique_ptr<ExecutionEngine> engine = make_engine(name);
    EXPECT_TRUE(exists_accepted_proof(gen::cycle(4), two_col, 1, *engine))
        << name;
    EXPECT_FALSE(exists_accepted_proof(gen::cycle(5), two_col, 1, *engine))
        << name;
  }
}

}  // namespace
}  // namespace lcp
