// Randomized dynamic-maintenance fuzz: after every maintained batch the
// session's verdict must be bit-identical to the stateless reference
// sweep over the maintained assignment, must equal the
// scheme's ground truth (accept iff the property holds), and — whenever
// the property holds — a scheme-regenerated proof must be fully accepted
// too, pinning the maintained assignment to the same acceptance class as
// the static prover's.  The tree stream is steered to cross component
// merges, splits, splices, re-rootings, node additions, and the decline/
// reprove fallback; the suite runs under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algo/matching.hpp"
#include "bench/churn_stream.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "core/spot_check.hpp"
#include "dynamic/coloring_maintainer.hpp"
#include "dynamic/matching_maintainer.hpp"
#include "dynamic/tree_maintainer.hpp"
#include "graph/generators.hpp"
#include "schemes/chromatic.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

/// The three-way equivalence checked after every batch.
void check_step(VerificationSession& session, const RunResult& got,
                int step) {
  const RunResult want = sweep_sequential(session.graph(), session.proof(),
                                          session.scheme().verifier());
  ASSERT_EQ(got.all_accept, want.all_accept) << "step " << step;
  ASSERT_EQ(got.rejecting, want.rejecting) << "step " << step;

  const bool holds = session.scheme().holds(session.graph());
  ASSERT_EQ(got.all_accept, holds) << "step " << step;
  if (holds) {
    const auto fresh = session.scheme().prove(session.graph());
    ASSERT_TRUE(fresh.has_value()) << "step " << step;
    const RunResult regen = sweep_sequential(session.graph(), *fresh,
                                             session.scheme().verifier());
    ASSERT_TRUE(regen.all_accept) << "step " << step;
    ASSERT_EQ(got.rejecting, regen.rejecting) << "step " << step;
  }
}

int pick_node(std::mt19937& rng, const Graph& g) {
  return std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
}

/// A uniformly random absent pair, or {-1, -1} when the graph is dense.
std::pair<int, int> pick_absent_edge(std::mt19937& rng, const Graph& g) {
  for (int tries = 0; tries < 32; ++tries) {
    const int u = pick_node(rng, g);
    const int v = pick_node(rng, g);
    if (u != v && !g.has_edge(u, v)) return {u, v};
  }
  return {-1, -1};
}

std::pair<int, int> pick_present_edge(std::mt19937& rng, const Graph& g) {
  if (g.m() == 0) return {-1, -1};
  const int e = std::uniform_int_distribution<int>(0, g.m() - 1)(rng);
  return {g.edge_u(e), g.edge_v(e)};
}

TEST(DynamicFuzz, TreeCertificatesUnderChurn) {
  const schemes::LeaderElectionScheme scheme;
  Graph g0 = gen::random_connected(24, 0.08, 20260730);
  g0.set_label(0, schemes::kLeaderFlag);
  VerificationSession session =
      VerificationSession::on(std::move(g0))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::TreeCertMaintainer>(
              schemes::kLeaderFlag))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  std::mt19937 rng(99);
  int leader = 0;
  NodeId next_id = session.graph().max_id() + 1;
  for (int step = 0; step < 150; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 34) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else if (roll < 70) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 80) {
      const int v = pick_node(rng, g);
      if (v != leader) {
        batch.set_node_label(leader, 0);
        batch.set_node_label(v, schemes::kLeaderFlag);
        leader = v;
      }
    } else if (roll < 88) {
      // Node growth, sometimes with an edge op BEFORE the add in the same
      // batch: the maintainer's replay then scans final-graph neighbor
      // lists that name the not-yet-grown node.
      if (roll < 82) {
        const auto [u, v] = pick_present_edge(rng, g);
        if (u >= 0) batch.remove_edge(u, v);
      }
      batch.add_node(next_id++);
      if (roll < 84) batch.add_edge(g.n(), pick_node(rng, g));
    } else if (roll < 96) {
      // Remove-then-re-add inside one batch, plus an extra removal.
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) {
        batch.remove_edge(u, v);
        batch.add_edge(u, v);
      }
      const auto [a, b] = pick_present_edge(rng, g);
      if (a >= 0 && !(a == u && b == v) && !(a == v && b == u)) {
        batch.remove_edge(a, b);
      }
    } else {
      // Out-of-band proof tamper: forces the decline/reprove fallback.
      batch.set_proof_label(pick_node(rng, g),
                            BitString::from_string("110"));
    }
    if (batch.empty()) continue;
    const RunResult r = session.apply(batch);
    check_step(session, r, step);
  }

  // The stream must have crossed the interesting structural events.
  const auto& stats =
      static_cast<dynamic::TreeCertMaintainer*>(session.maintainer())->stats();
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.splits, 0u);
  EXPECT_GT(stats.splices, 0u);
  EXPECT_GT(stats.reroots, 0u);
  EXPECT_GT(session.stats().repaired, 60u);
  EXPECT_GT(session.stats().declined, 0u);
}

TEST(DynamicFuzz, GreedyColoringUnderChurn) {
  const int k = 4;
  const schemes::ChromaticLeqKScheme scheme(k);
  VerificationSession session =
      VerificationSession::on(gen::random_graph(22, 0.15, 11))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::GreedyColoringMaintainer>(k))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  std::mt19937 rng(7);
  NodeId next_id = session.graph().max_id() + 1;
  for (int step = 0; step < 120; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 45) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 85) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else {
      // Sometimes a conflict-prone insertion precedes the growth in the
      // same batch, exercising replay against a not-yet-grown node.
      if (roll < 92) {
        const auto [u, v] = pick_absent_edge(rng, g);
        if (u >= 0) batch.add_edge(u, v);
      }
      batch.add_node(next_id++);
      batch.add_edge(g.n(), pick_node(rng, g));
    }
    if (batch.empty()) continue;
    const RunResult r = session.apply(batch);
    check_step(session, r, step);
  }
  EXPECT_GT(session.stats().repaired, 90u);
}

TEST(DynamicFuzz, MaximalMatchingUnderChurn) {
  const schemes::MaximalMatchingScheme scheme;
  Graph g0 = gen::random_graph(26, 0.12, 5);
  const std::vector<bool> matched = greedy_maximal_matching(g0);
  for (int e = 0; e < g0.m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      g0.set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }
  VerificationSession session =
      VerificationSession::on(std::move(g0))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::MatchingMaintainer>(
              schemes::MaximalMatchingScheme::kMatchedBit))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  std::mt19937 rng(13);
  NodeId next_id = session.graph().max_id() + 1;
  for (int step = 0; step < 120; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 40) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else if (roll < 75) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 90) {
      // Out-of-band toggle of the matched bit: must be healed or adopted.
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) {
        const int e = g.edge_index(u, v);
        batch.set_edge_label(
            u, v,
            g.edge_label(e) ^ schemes::MaximalMatchingScheme::kMatchedBit);
      }
    } else {
      // A removal first frees endpoints whose rematch scan then sees the
      // not-yet-grown node in its final-graph neighbor list.
      if (roll < 93) {
        const auto [u, v] = pick_present_edge(rng, g);
        if (u >= 0) batch.remove_edge(u, v);
      }
      batch.add_node(next_id++);
      if (roll < 95) batch.add_edge(g.n(), pick_node(rng, g));
    }
    if (batch.empty()) continue;
    const RunResult r = session.apply(batch);
    // The maintainer always repairs, so the matching stays maximal and
    // every node accepts at every step.
    EXPECT_TRUE(r.all_accept) << "step " << step;
    check_step(session, r, step);
  }
  EXPECT_EQ(session.stats().reproves, 0u);
  EXPECT_EQ(session.stats().repaired, session.stats().batches);
}

TEST(DynamicFuzz, MergeHeavyComponentIdentity) {
  // A hub with P chains of length L: cutting a chain's hub link severs a
  // deep subtree (split), re-adding it merges, and tip-to-tip links merge
  // whole chains sideways.  The stream is split/merge-saturated on
  // purpose — the union-find beside the forest must keep root_of exact
  // across hundreds of record merges and re-allocations, with check_step
  // re-deriving the ground truth after every batch.
  constexpr int kChains = 4;
  constexpr int kLen = 6;
  Graph g0;
  const int hub = g0.add_node(1, schemes::kLeaderFlag);
  std::vector<std::vector<int>> chains(kChains);
  NodeId next_id = 2;
  for (int c = 0; c < kChains; ++c) {
    int prev = hub;
    for (int i = 0; i < kLen; ++i) {
      const int v = g0.add_node(next_id++);
      g0.add_edge(prev, v);
      chains[static_cast<std::size_t>(c)].push_back(v);
      prev = v;
    }
  }

  const schemes::LeaderElectionScheme scheme;
  VerificationSession session =
      VerificationSession::on(std::move(g0))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::TreeCertMaintainer>(
              schemes::kLeaderFlag))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  // 200 rounds allocate ~one union-find record each (one per split):
  // enough to cross the maintainer's compaction threshold (4n + 64
  // records at n = 25), so the rebuild-and-keep-serving path is
  // exercised too.
  std::mt19937 rng(20260731);
  int step = 0;
  for (int round = 0; round < 200; ++round) {
    const int c = static_cast<int>(rng() % kChains);
    const int d = static_cast<int>((c + 1 + rng() % (kChains - 1)) % kChains);
    const auto& cc = chains[static_cast<std::size_t>(c)];
    const auto& cd = chains[static_cast<std::size_t>(d)];
    const int cut = static_cast<int>(rng() % 3);  // depth of the cut link
    const int cu = cut == 0 ? hub : cc[static_cast<std::size_t>(cut - 1)];
    const int cv = cc[static_cast<std::size_t>(cut)];

    MutationBatch sever;
    sever.remove_edge(cu, cv);
    check_step(session, session.apply(sever), step++);

    if (rng() % 2 == 0) {
      // Bridge the severed chain to a neighbouring chain's tip first (a
      // cross-chain merge), then restore the cut link (another merge).
      MutationBatch bridge;
      bridge.add_edge(cc.back(), cd.back());
      check_step(session, session.apply(bridge), step++);
      MutationBatch unbridge;
      unbridge.add_edge(cu, cv);
      unbridge.remove_edge(cc.back(), cd.back());
      check_step(session, session.apply(unbridge), step++);
    } else {
      MutationBatch restore;
      restore.add_edge(cu, cv);
      check_step(session, session.apply(restore), step++);
    }
  }

  const auto& stats =
      static_cast<dynamic::TreeCertMaintainer*>(session.maintainer())->stats();
  EXPECT_GT(stats.merges, 150u);
  EXPECT_GT(stats.splits, 150u);
  EXPECT_GT(stats.record_compactions, 0u);
  EXPECT_EQ(session.stats().declined, 0u);
  EXPECT_EQ(session.stats().repaired, session.stats().batches);
}

// ---------------------------------------------------------------------------
// The patching x sharding matrix, at session level, under a churn stream.
// ---------------------------------------------------------------------------

TEST(DynamicFuzz, FourWayMatrixUnderChurnStream) {
  // Four sessions over identical starting state, one per {patch} x
  // {shard} combination, plus a random-toggle fifth, all fed the
  // preferential-attachment + sliding-window stream (bench/churn_stream.hpp)
  // with leader moves layered on.  After every batch all sessions must
  // report bit-identical verdicts, identical graph and tracker state
  // fingerprints, and session 0 passes the full ground-truth check.
  const schemes::LeaderElectionScheme scheme;
  Graph start = gen::random_connected(22, 0.08, 20260731);
  start.set_label(0, schemes::kLeaderFlag);

  struct Lane {
    std::string name;
    std::unique_ptr<VerificationSession> session;
  };
  auto make_lane = [&](const std::string& name,
                       IncrementalEngineOptions options) {
    Lane lane;
    lane.name = name;
    lane.session.reset(new VerificationSession(
        VerificationSession::on(start)
            .scheme(scheme)
            .maintainer(std::make_unique<dynamic::TreeCertMaintainer>(
                schemes::kLeaderFlag))
            .engine_options(std::move(options))
            .build()));
    EXPECT_TRUE(lane.session->maintainer_bound()) << name;
    return lane;
  };
  std::vector<Lane> lanes;
  lanes.push_back(make_lane(
      "patch+serial", {.verify_state = false, .patch_views = true}));
  lanes.push_back(make_lane("patch+shard", {.verify_state = false,
                                            .patch_views = true,
                                            .shard_threads = 3,
                                            .shard_min_centers = 0}));
  lanes.push_back(make_lane(
      "reextract+serial", {.verify_state = false, .patch_views = false}));
  lanes.push_back(make_lane("reextract+shard", {.verify_state = false,
                                                .patch_views = false,
                                                .shard_threads = 3,
                                                .shard_min_centers = 0}));
  lanes.push_back(make_lane(
      "random-toggle", {.verify_state = false, .shard_min_centers = 0}));

  // Spot-check riders: two budgets x two exact inners also ride lane 0's
  // tracker through the same stream.  A sampled ACCEPT may be a false
  // negative by design, but every rider REJECT must be exact-confirmed
  // (bit-identical to the ground-truth verdict), the error accounting
  // must be monotone with miss_bound in [0, 1], and a periodic audit must
  // realign each rider with the exact verdict.
  struct SpotRider {
    std::string name;
    std::unique_ptr<SpotCheckEngine> engine;
    std::uint64_t sampled = 0;
    std::uint64_t skipped = 0;
    std::uint64_t escalations = 0;
  };
  std::vector<SpotRider> riders;
  for (const double budget : {0.3, 0.08}) {
    for (const char* inner : {"incremental", "direct"}) {
      SpotRider rider;
      rider.name =
          "spot:" + std::to_string(budget) + ":" + std::string(inner);
      rider.engine = std::make_unique<SpotCheckEngine>(
          make_engine(inner),
          SpotCheckOptions{.budget = budget, .seed = 0xabc0ULL});
      ASSERT_TRUE(rider.engine->attach_tracker(&lanes[0].session->tracker()));
      riders.push_back(std::move(rider));
    }
  }

  bench::ChurnStream stream({.grow_probability = 0.3,
                             .attach_edges = 2,
                             .churn_edges = 2,
                             .window = 10,
                             .seed = 4242});
  std::mt19937 rng(31337);
  int leader = 0;
  for (int step = 0; step < 110; ++step) {
    const Graph& g = lanes[0].session->graph();
    MutationBatch batch;
    stream.next(step, g, &batch);
    if (rng() % 5 == 0 && g.n() > 1) {
      const int next = static_cast<int>(rng() % static_cast<unsigned>(g.n()));
      if (next != leader) {
        batch.set_node_label(leader, 0);
        batch.set_node_label(next, schemes::kLeaderFlag);
        leader = next;
      }
    }
    if (batch.empty()) continue;

    IncrementalEngine& toggled = *lanes[4].session->incremental_engine();
    toggled.set_patch_views(rng() % 2 == 0);
    toggled.set_shard_threads(rng() % 2 == 0 ? 3 : 0);

    const RunResult want = lanes[0].session->apply(batch);
    check_step(*lanes[0].session, want, step);
    const std::uint64_t want_graph_fp =
        graph_fingerprint(lanes[0].session->graph());
    const std::uint64_t want_state_fp =
        lanes[0].session->tracker().state_fingerprint();
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      const RunResult got = lanes[i].session->apply(batch);
      ASSERT_EQ(want.all_accept, got.all_accept)
          << lanes[i].name << " step " << step;
      ASSERT_EQ(want.rejecting, got.rejecting)
          << lanes[i].name << " step " << step;
      ASSERT_EQ(want_graph_fp, graph_fingerprint(lanes[i].session->graph()))
          << lanes[i].name << " step " << step;
      ASSERT_EQ(want_state_fp, lanes[i].session->tracker().state_fingerprint())
          << lanes[i].name << " step " << step;
    }
    for (SpotRider& rider : riders) {
      const bool audited = step % 17 == 0;
      if (audited) rider.engine->request_audit();
      const RunResult got = rider.engine->run(lanes[0].session->graph(),
                                              lanes[0].session->proof(),
                                              scheme.verifier());
      if (audited || !got.all_accept) {
        // Audited runs and rejections are exact by contract: the result
        // must be bit-identical to the ground-truth verdict, never the
        // raw sample.
        ASSERT_EQ(want.all_accept, got.all_accept)
            << rider.name << " step " << step;
        ASSERT_EQ(want.rejecting, got.rejecting)
            << rider.name << " step " << step;
      }
      const SpotCheckEngine::Stats& s = rider.engine->stats();
      ASSERT_GE(s.balls_sampled, rider.sampled)
          << rider.name << " step " << step;
      ASSERT_GE(s.balls_skipped, rider.skipped)
          << rider.name << " step " << step;
      ASSERT_GE(s.escalations, rider.escalations)
          << rider.name << " step " << step;
      ASSERT_GE(s.miss_bound, 0.0) << rider.name << " step " << step;
      ASSERT_LE(s.miss_bound, 1.0) << rider.name << " step " << step;
      rider.sampled = s.balls_sampled;
      rider.skipped = s.balls_skipped;
      rider.escalations = s.escalations;
    }
  }

  // The stream must have driven the interesting machinery in every lane.
  EXPECT_GT(lanes[0].session->incremental_engine()->stats().views_patched, 0u);
  EXPECT_GT(lanes[1].session->incremental_engine()->stats().sharded_rounds, 0u);
  EXPECT_GT(lanes[2].session->incremental_engine()->stats().reextractions, 0u);
  EXPECT_GT(lanes[0].session->stats().repaired, 40u);
  for (SpotRider& rider : riders) {
    const SpotCheckEngine::Stats& s = rider.engine->stats();
    EXPECT_GT(s.sampled_runs, 0u) << rider.name;
    EXPECT_GT(s.balls_skipped, 0u) << rider.name;
    EXPECT_GE(s.audits, 5u) << rider.name;
    rider.engine->attach_tracker(nullptr);
  }
}

}  // namespace
}  // namespace lcp
