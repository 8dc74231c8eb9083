// The delta subsystem: Graph::remove_edge, MutationBatch/DeltaTracker
// bookkeeping (dirty log, XOR state fingerprint, stepwise structural
// BFS), and the IncrementalEngine's tracker integration on targeted
// ball-boundary cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/delta.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "lower/gluing.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

TEST(RemoveEdge, SwapsLastEdgeIntoFreedSlot) {
  Graph g;
  for (int v = 0; v < 5; ++v) g.add_node(static_cast<NodeId>(v + 1));
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 11);
  g.add_edge(2, 3, 12);
  g.add_edge(3, 4, 13);
  g.remove_edge(1, 2);
  EXPECT_EQ(g.m(), 3);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(g.has_edge(3, 4));
  // The moved edge's adjacency entries must point at its new index.
  const int moved = g.edge_index(3, 4);
  EXPECT_EQ(g.edge_label(moved), 13u);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 1);
  EXPECT_THROW(g.remove_edge(1, 2), std::invalid_argument);
}

TEST(RemoveEdge, PortsStaySortedById) {
  Graph g = gen::cycle(6);
  g.remove_edge(2, 3);
  for (int v = 0; v < g.n(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
      EXPECT_LT(g.id(nbrs[i].to), g.id(nbrs[i + 1].to)) << v;
    }
  }
  const int e = g.add_edge(2, 3);
  EXPECT_EQ(g.edge_index(2, 3), e);
}

TEST(DeltaTracker, FingerprintTracksMutations) {
  Graph g = gen::grid(3, 3);
  Proof p = Proof::empty(g.n());
  DeltaTracker tracker(g, p, 1);
  EXPECT_EQ(tracker.state_fingerprint(),
            DeltaTracker::state_fingerprint_of(g, p));

  MutationBatch batch;
  batch.set_node_label(0, 7);
  BitString bits;
  bits.append_uint(5, 3);
  batch.set_proof_label(4, bits);
  batch.add_edge(0, 4);
  batch.set_edge_label(0, 4, 9);
  batch.set_edge_weight(0, 4, -2);
  batch.remove_edge(0, 1);
  tracker.apply(batch);

  EXPECT_EQ(tracker.generation(), 1u);
  EXPECT_EQ(g.label(0), 7u);
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_label(g.edge_index(0, 4)), 9u);
  EXPECT_EQ(g.edge_weight(g.edge_index(0, 4)), -2);
  EXPECT_EQ(p.labels[4], bits);
  // The incremental fingerprint equals a from-scratch recompute.
  EXPECT_EQ(tracker.state_fingerprint(),
            DeltaTracker::state_fingerprint_of(g, p));
}

TEST(DeltaTracker, DirtyRecordsNameEpicentres) {
  // Path 0-1-2-3-4-5, horizon 2.
  Graph g;
  for (int v = 0; v < 6; ++v) g.add_node(static_cast<NodeId>(v + 1));
  for (int v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1);
  Proof p = Proof::empty(6);
  DeltaTracker tracker(g, p, 2);

  MutationBatch batch;
  BitString one;
  one.append_bit(true);
  batch.set_proof_label(0, one);
  batch.set_node_label(5, 3);
  tracker.apply(batch);

  const auto records = tracker.records_since(0);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0]->proof_nodes, std::vector<int>{0});
  EXPECT_EQ((*records)[0]->relabeled_nodes, std::vector<int>{5});
  EXPECT_TRUE((*records)[0]->structural_dirty.empty());

  // Structural mutation: removing {2,3} dirties exactly the centres whose
  // radius-2 ball contains BOTH endpoints in the pre-removal graph —
  // ball(2) = {0..4} intersected with ball(3) = {1..5}.  Nodes 0 and 5
  // see only one endpoint, so their views cannot change.
  MutationBatch structural;
  structural.remove_edge(2, 3);
  tracker.apply(structural);
  const auto after = tracker.records_since(1);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0]->structural_dirty, (std::vector<int>{1, 2, 3, 4}));

  // Closing the far ends: post-mutation radius-2 balls around 0
  // ({0,1,2,4,5}) and around 5 ({0,1,3,4,5}) intersect in {0,1,4,5};
  // nodes 2 and 3 cannot see the new edge.
  MutationBatch add;
  add.add_edge(0, 5);
  tracker.apply(add);
  const auto third = tracker.records_since(2);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ((*third)[0]->structural_dirty, (std::vector<int>{0, 1, 4, 5}));

  EXPECT_EQ(tracker.records_since(3)->size(), 0u);
  EXPECT_EQ(tracker.state_fingerprint(),
            DeltaTracker::state_fingerprint_of(g, p));
}

TEST(DeltaTracker, AddNodeGrowsPairAndFingerprint) {
  Graph g = gen::path(4);
  Proof p = Proof::empty(4);
  DeltaTracker tracker(g, p, 2);

  // An isolated addition, then an attach of the fresh index in one batch.
  MutationBatch batch;
  batch.add_node(100, 3);
  batch.add_edge(4, 1);
  tracker.apply(batch);

  EXPECT_EQ(g.n(), 5);
  EXPECT_EQ(g.id(4), 100u);
  EXPECT_EQ(g.label(4), 3u);
  EXPECT_TRUE(g.has_edge(4, 1));
  ASSERT_EQ(p.labels.size(), 5u);
  EXPECT_TRUE(p.labels[4].empty());
  EXPECT_EQ(tracker.state_fingerprint(),
            DeltaTracker::state_fingerprint_of(g, p));

  const auto records = tracker.records_since(0);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0]->added_nodes, std::vector<int>{4});
  // The new node is structurally dirty, as is everything within horizon 2
  // of the attach endpoints.
  const auto& dirty = (*records)[0]->structural_dirty;
  EXPECT_TRUE(std::find(dirty.begin(), dirty.end(), 4) != dirty.end());
  EXPECT_TRUE(std::find(dirty.begin(), dirty.end(), 1) != dirty.end());

  // Duplicate ids are refused mid-batch, leaving the applied prefix
  // consistent.
  MutationBatch dup;
  dup.add_node(100);
  EXPECT_THROW(tracker.apply(dup), std::invalid_argument);
  EXPECT_EQ(tracker.state_fingerprint(),
            DeltaTracker::state_fingerprint_of(g, p));
}

TEST(IncrementalEngine, NodeAdditionsKeepCacheIncremental) {
  // Bipartiteness on a growing even cycle: append two nodes and reclose
  // the cycle, which keeps the property true and the proof extendable.
  const schemes::BipartiteScheme scheme;
  Graph g = gen::cycle(8);
  Proof p = *scheme.prove(g);
  DeltaTracker tracker(g, p, scheme.verifier().radius());
  IncrementalEngine engine;
  const TrackerAttachment attachment(engine, tracker);

  EXPECT_TRUE(engine.run(g, p, scheme.verifier()).all_accept);
  EXPECT_EQ(engine.stats().full_sweeps, 1u);

  NodeId next = g.max_id() + 1;
  for (int round = 0; round < 4; ++round) {
    const int n = g.n();
    MutationBatch grow;
    grow.remove_edge(n - 1, 0);
    grow.add_node(next++);
    grow.add_node(next++);
    grow.add_edge(n - 1, n);
    grow.add_edge(n, n + 1);
    grow.add_edge(n + 1, 0);
    // Colour the two fresh nodes consistently with their cycle position.
    BitString even, odd;
    even.append_bit(false);
    odd.append_bit(true);
    grow.set_proof_label(n, p.labels[static_cast<std::size_t>(n - 1)].bit(0)
                                ? even
                                : odd);
    grow.set_proof_label(n + 1,
                         p.labels[0].bit(0) ? even : odd);
    tracker.apply(grow);

    const RunResult got = engine.run(g, p, scheme.verifier());
    const RunResult want = sweep_sequential(g, p, scheme.verifier());
    EXPECT_EQ(got.all_accept, want.all_accept) << "round " << round;
    EXPECT_EQ(got.rejecting, want.rejecting) << "round " << round;
    EXPECT_TRUE(got.all_accept) << "round " << round;
  }
  // Every growth round was served from the cache, not a resweep.
  EXPECT_EQ(engine.stats().full_sweeps, 1u);
  EXPECT_EQ(engine.stats().incremental_runs, 4u);
}

TEST(DeltaTracker, ProofOnlySessionRejectsGraphMutations) {
  const Graph g = gen::cycle(5);
  Proof p = Proof::empty(g.n());
  DeltaTracker tracker(g, p, 1);
  MutationBatch batch;
  batch.set_node_label(0, 1);
  EXPECT_THROW(tracker.apply(batch), std::logic_error);
  // The failed batch still produced a (vacuous) record.
  EXPECT_EQ(tracker.generation(), 1u);

  MutationBatch ok;
  BitString bit;
  bit.append_bit(true);
  ok.set_proof_label(2, bit);
  tracker.apply(ok);
  EXPECT_EQ(p.labels[2], bit);
}

TEST(DeltaTracker, RecordsSinceReportsTrimming) {
  const Graph g = gen::cycle(4);
  Proof p = Proof::empty(g.n());
  DeltaTracker tracker(g, p, 1);
  BitString bit;
  bit.append_bit(true);
  for (int i = 0; i < 1100; ++i) {  // exceeds the log cap
    MutationBatch batch;
    batch.set_proof_label(i % 4, bit);
    tracker.apply(batch);
  }
  EXPECT_FALSE(tracker.records_since(0).has_value());
  EXPECT_TRUE(tracker.records_since(tracker.generation() - 10).has_value());
}

TEST(IncrementalEngine, BallBoundaryMutations) {
  // Path graph, radius-2 verifier: a proof flip at distance 3 from a
  // centre must not re-verify it; at distance 2 it must.
  Graph g;
  const int n = 9;
  for (int v = 0; v < n; ++v) g.add_node(static_cast<NodeId>(v + 1));
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  Proof p = Proof::empty(n);
  const LambdaVerifier ver(2, [](const View& v) {
    // Accept iff no proof bit set anywhere in the 2-ball.
    for (int u = 0; u < v.ball.n(); ++u) {
      if (v.proof_of(u).size() > 0) return false;
    }
    return true;
  });

  DeltaTracker tracker(g, p, 2);
  IncrementalEngine engine;
  ASSERT_TRUE(engine.attach_tracker(&tracker));
  EXPECT_TRUE(engine.run(g, p, ver).all_accept);

  BitString bit;
  bit.append_bit(true);
  MutationBatch batch;
  batch.set_proof_label(8, bit);  // distance 3+ from centres 0..5
  tracker.apply(batch);
  const RunResult r = engine.run(g, p, ver);
  // Exactly the centres within distance 2 of node 8 reject.
  EXPECT_EQ(r.rejecting, (std::vector<int>{6, 7, 8}));
  EXPECT_EQ(engine.stats().nodes_reverified, 3u);

  // Fresh-engine cross-check.
  const RunResult expected = sweep_sequential(g, p, ver);
  EXPECT_EQ(expected.rejecting, r.rejecting);
  engine.attach_tracker(nullptr);
}

TEST(IncrementalEngine, EdgeChurnNearBallBoundary) {
  // Adding an edge pulls a distant dirty label into a centre's ball; the
  // engine must notice through the structural record.
  Graph g;
  const int n = 8;
  for (int v = 0; v < n; ++v) g.add_node(static_cast<NodeId>(v + 1));
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  Proof p = Proof::empty(n);
  BitString bit;
  bit.append_bit(true);
  p.labels[7] = bit;  // node 7 carries the poison label from the start
  const LambdaVerifier ver(1, [](const View& v) {
    for (int u = 0; u < v.ball.n(); ++u) {
      if (v.proof_of(u).size() > 0) return false;
    }
    return true;
  });

  DeltaTracker tracker(g, p, 1);
  IncrementalEngine engine;
  engine.attach_tracker(&tracker);
  EXPECT_EQ(engine.run(g, p, ver).rejecting,
            sweep_sequential(g, p, ver).rejecting);

  MutationBatch batch;
  batch.add_edge(0, 7);  // node 0 suddenly sees the poison label
  tracker.apply(batch);
  const RunResult r = engine.run(g, p, ver);
  EXPECT_EQ(r.rejecting, sweep_sequential(g, p, ver).rejecting);
  EXPECT_FALSE(r.all_accept);
  ASSERT_FALSE(r.rejecting.empty());
  EXPECT_EQ(r.rejecting.front(), 0);

  MutationBatch undo;
  undo.remove_edge(0, 7);
  tracker.apply(undo);
  EXPECT_EQ(engine.run(g, p, ver).rejecting,
            sweep_sequential(g, p, ver).rejecting);
  engine.attach_tracker(nullptr);
}

TEST(IncrementalEngine, OutOfBandMutationFallsBack) {
  Graph g = gen::cycle(10);
  Proof p = Proof::empty(g.n());
  const LambdaVerifier ver(1, [](const View& v) {
    return v.proof_of(v.center).size() == 0;
  });
  DeltaTracker tracker(g, p, 1);
  IncrementalEngine engine;
  engine.attach_tracker(&tracker);
  EXPECT_TRUE(engine.run(g, p, ver).all_accept);

  // Mutate BEHIND the tracker's back: verify_state must catch it.
  BitString bit;
  bit.append_bit(true);
  p.labels[3] = bit;
  const RunResult r = engine.run(g, p, ver);
  EXPECT_EQ(r.rejecting, std::vector<int>{3});
  EXPECT_GE(engine.stats().fallbacks, 1u);

  // After the resync the tracker path works again.
  MutationBatch batch;
  batch.set_proof_label(3, BitString{});
  tracker.apply(batch);
  EXPECT_TRUE(engine.run(g, p, ver).all_accept);
  engine.attach_tracker(nullptr);
}

TEST(IncrementalEngine, VerifierSwapInvalidatesCachedVerdicts) {
  // Regression: cached verdicts are keyed on the verifier's identity; a
  // different verifier of equal radius on the same unchanged (graph,
  // proof) must not be served the previous verifier's verdicts.
  const Graph g = gen::cycle(6);
  const Proof p = Proof::empty(6);
  const LambdaVerifier always(1, [](const View&) { return true; });
  const LambdaVerifier never(1, [](const View&) { return false; });
  IncrementalEngine engine;
  EXPECT_TRUE(engine.run(g, p, always).all_accept);
  const RunResult swapped = engine.run(g, p, never);
  EXPECT_FALSE(swapped.all_accept);
  EXPECT_EQ(swapped.rejecting.size(), 6u);

  // Same on the tracker path: swap verifiers mid-session.
  Graph gt = gen::cycle(6);
  Proof pt = Proof::empty(6);
  DeltaTracker tracker(gt, pt, 1);
  engine.attach_tracker(&tracker);
  EXPECT_TRUE(engine.run(gt, pt, always).all_accept);
  EXPECT_FALSE(engine.run(gt, pt, never).all_accept);
  engine.attach_tracker(nullptr);
}

TEST(IncrementalEngine, InterleavedForeignRunDoesNotPoisonTrackerCache) {
  // Regression: a content-path run on a different graph of the same size
  // and radius rebuilds the cache for that graph; the next tracker-path
  // run must NOT serve the foreign verdicts as its own.
  const int n = 10;
  Graph ga = gen::cycle(n);
  Graph gb = gen::cycle(n);
  Proof pa = Proof::empty(n);
  Proof pb = Proof::empty(n);
  BitString bit;
  bit.append_bit(true);
  pb.labels[5] = bit;  // gb rejects at node 5's neighbourhood
  const LambdaVerifier ver(1, [](const View& v) {
    return v.proof_of(v.center).size() == 0;
  });

  DeltaTracker tracker(ga, pa, 1);
  IncrementalEngine engine;
  engine.attach_tracker(&tracker);
  EXPECT_TRUE(engine.run(ga, pa, ver).all_accept);
  EXPECT_FALSE(engine.run(gb, pb, ver).all_accept);  // foreign content run
  EXPECT_TRUE(engine.run(ga, pa, ver).all_accept);   // must not see gb's
  engine.attach_tracker(nullptr);
}

TEST(IncrementalEngine, GluingSurgeryIsIncremental) {
  // The Figure 1 splice through the delta API: only the seam balls are
  // re-verified, and the verdict matches a fresh engine's.
  const lower::GluingProblem problem = lower::leader_election_problem(2);
  const int n = 33;
  IncrementalEngine engine;
  const lower::GluingOutcome outcome =
      lower::run_gluing_attack(problem, n, 40, 8, engine);
  ASSERT_TRUE(outcome.found_collision);
  // Premise: every node accepted the pre-surgery union (the warm run).
  EXPECT_TRUE(outcome.union_all_accept);
  EXPECT_TRUE(outcome.fooled());
  const auto& stats = engine.stats();
  EXPECT_GE(stats.incremental_runs, 1u);
  // The post-surgery re-verification touched a seam neighbourhood, not
  // all 2n nodes.
  EXPECT_LT(stats.nodes_reverified, static_cast<std::uint64_t>(n));
}

}  // namespace
}  // namespace lcp
