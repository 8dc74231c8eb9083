// The dynamic proof-maintenance subsystem (src/dynamic/): targeted cases
// for the tree, coloring, and matching maintainers, driven through a
// VerificationSession, and the session's decline/reprove fallback.  The
// randomized cross-check lives in tests/test_dynamic_fuzz.cpp.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "core/session.hpp"
#include "dynamic/coloring_maintainer.hpp"
#include "dynamic/matching_maintainer.hpp"
#include "dynamic/tree_maintainer.hpp"
#include "graph/generators.hpp"
#include "schemes/chromatic.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

using dynamic::GreedyColoringMaintainer;
using dynamic::MatchingMaintainer;
using dynamic::TreeCertMaintainer;

/// The session's incremental verdict must be bit-identical to the
/// reference sweep over the maintained assignment.
void expect_matches_reference(VerificationSession& session,
                           const RunResult& got) {
  const RunResult want = sweep_sequential(session.graph(), session.proof(),
                                          session.scheme().verifier());
  EXPECT_EQ(got.all_accept, want.all_accept);
  EXPECT_EQ(got.rejecting, want.rejecting);
}

// ------------------------------------------------------------ tree certs --

VerificationSession leader_session(Graph g) {
  static const schemes::LeaderElectionScheme scheme;
  g.set_label(0, schemes::kLeaderFlag);
  return VerificationSession::on(std::move(g))
      .scheme(scheme)
      .maintainer(std::make_unique<TreeCertMaintainer>(schemes::kLeaderFlag))
      .build();
}

TEST(TreeMaintainer, BindsToSchemeProof) {
  VerificationSession session =
      leader_session(gen::random_connected(20, 0.2, 7));
  EXPECT_TRUE(session.maintainer_bound());
  EXPECT_TRUE(session.verify().all_accept);
}

TEST(TreeMaintainer, SplicesAroundRemovedTreeEdge) {
  // Removing any single edge of a cycle keeps it connected, so whichever
  // edge the certificate tree used, the maintainer must heal.
  VerificationSession session = leader_session(gen::cycle(8));
  auto* maintainer = static_cast<TreeCertMaintainer*>(session.maintainer());
  for (int i = 0; i < 8; ++i) {
    MutationBatch batch;
    batch.remove_edge(i, (i + 1) % 8);
    RunResult r = session.apply(batch);
    EXPECT_TRUE(r.all_accept) << "removing edge " << i;
    expect_matches_reference(session, r);
    MutationBatch undo;
    undo.add_edge(i, (i + 1) % 8);
    r = session.apply(undo);
    EXPECT_TRUE(r.all_accept);
    expect_matches_reference(session, r);
  }
  EXPECT_EQ(session.stats().declined, 0u);
  EXPECT_EQ(session.stats().reproves, 0u);
  EXPECT_GT(maintainer->stats().splices, 0u);
}

TEST(TreeMaintainer, SplitAndMergeAcrossComponents) {
  VerificationSession session = leader_session(gen::path(9));
  auto* maintainer = static_cast<TreeCertMaintainer*>(session.maintainer());

  // Cutting a path splits it; the leaderless component must raise alarms.
  MutationBatch cut;
  cut.remove_edge(4, 5);
  RunResult r = session.apply(cut);
  EXPECT_FALSE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(maintainer->stats().splits, 1u);
  EXPECT_EQ(session.stats().reproves, 0u);  // the maintainer kept the forest

  // Reconnecting elsewhere merges the components back.
  MutationBatch join;
  join.add_edge(0, 8);
  r = session.apply(join);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(maintainer->stats().merges, 1u);
  EXPECT_EQ(session.stats().reproves, 0u);
}

TEST(TreeMaintainer, ReRootsOnLeaderMove) {
  VerificationSession session =
      leader_session(gen::random_connected(16, 0.15, 3));
  auto* maintainer = static_cast<TreeCertMaintainer*>(session.maintainer());
  MutationBatch batch;
  batch.set_node_label(0, 0);
  batch.set_node_label(11, schemes::kLeaderFlag);
  const RunResult r = session.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(maintainer->stats().reroots, 1u);
  EXPECT_EQ(session.stats().reproves, 0u);
}

TEST(TreeMaintainer, GrowsWithAddedNodes) {
  VerificationSession session = leader_session(gen::cycle(6));
  const NodeId fresh = session.graph().max_id() + 1;
  MutationBatch batch;
  batch.add_node(fresh);
  batch.add_edge(6, 2);
  const RunResult r = session.apply(batch);
  EXPECT_EQ(session.graph().n(), 7);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(session.stats().reproves, 0u);

  // An isolated addition leaves the leader component intact but breaks
  // connectivity: somebody must reject.
  MutationBatch lone;
  lone.add_node(fresh + 1);
  const RunResult r2 = session.apply(lone);
  EXPECT_FALSE(r2.all_accept);
  expect_matches_reference(session, r2);
}

TEST(TreeMaintainer, RemoveThenReAddInOneBatch) {
  VerificationSession session = leader_session(gen::path(7));
  MutationBatch batch;
  batch.remove_edge(3, 4);
  batch.add_edge(3, 4);
  const RunResult r = session.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(session.stats().reproves, 0u);
}

TEST(TreeMaintainer, DeclinesOutOfBandProofEdit) {
  VerificationSession session = leader_session(gen::cycle(6));
  MutationBatch tamper;
  tamper.set_proof_label(2, BitString::from_string("1011"));
  const RunResult r = session.apply(tamper);
  // The maintainer declines, the session reproves, and the fresh proof
  // overwrites the tamper: verification still accepts.
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(session.stats().declined, 1u);
  EXPECT_EQ(session.stats().reproves, 1u);
  EXPECT_TRUE(session.maintainer_bound());  // rebound to the fresh proof

  // Subsequent batches are maintained again.
  MutationBatch batch;
  batch.remove_edge(0, 1);
  const RunResult r2 = session.apply(batch);
  EXPECT_TRUE(r2.all_accept);
  EXPECT_EQ(session.stats().reproves, 1u);
}

// -------------------------------------------------------------- coloring --

TEST(ColoringMaintainer, RecolorsConflictEndpoint) {
  const schemes::ChromaticLeqKScheme scheme(3);
  VerificationSession session =
      VerificationSession::on(gen::cycle(6))
          .scheme(scheme)
          .maintainer(std::make_unique<GreedyColoringMaintainer>(3))
          .build();
  ASSERT_TRUE(session.maintainer_bound());
  MutationBatch batch;
  batch.add_edge(0, 2);  // an even cycle 2-colours, so 0 and 2 collide
  const RunResult r = session.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  EXPECT_EQ(session.stats().reproves, 0u);
  auto* maintainer =
      static_cast<GreedyColoringMaintainer*>(session.maintainer());
  EXPECT_EQ(maintainer->stats().recolored, 1u);
}

TEST(ColoringMaintainer, DeclineFallsBackToExactProver) {
  const schemes::ChromaticLeqKScheme scheme(2);
  VerificationSession session =
      VerificationSession::on(gen::path(4))
          .scheme(scheme)
          .maintainer(std::make_unique<GreedyColoringMaintainer>(2))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  MutationBatch batch;
  batch.add_edge(0, 2);  // triangle: not 2-colourable, greedy cannot help
  const RunResult r = session.apply(batch);
  EXPECT_FALSE(r.all_accept);  // no-instance: rejection is the right answer
  expect_matches_reference(session, r);
  EXPECT_EQ(session.stats().declined, 1u);
  EXPECT_EQ(session.stats().failed_proves, 1u);
  EXPECT_FALSE(session.maintainer_bound());

  // Removing the chord restores 2-colourability; the reprove path heals
  // the assignment and rebinds the maintainer.
  MutationBatch undo;
  undo.remove_edge(0, 2);
  const RunResult r2 = session.apply(undo);
  EXPECT_TRUE(r2.all_accept);
  expect_matches_reference(session, r2);
  EXPECT_TRUE(session.maintainer_bound());
}

// -------------------------------------------------------------- matching --

Graph matched_path6() {
  Graph g = gen::path(6);
  for (int u : {0, 2, 4}) {
    g.set_edge_label(g.edge_index(u, u + 1),
                     schemes::MaximalMatchingScheme::kMatchedBit);
  }
  return g;
}

TEST(MatchingMaintainer, RepairsRemovalAndInsertion) {
  const schemes::MaximalMatchingScheme scheme;
  VerificationSession session =
      VerificationSession::on(matched_path6())
          .scheme(scheme)
          .maintainer(std::make_unique<MatchingMaintainer>(
              schemes::MaximalMatchingScheme::kMatchedBit))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  // Dropping the middle matched edge leaves 2 and 3 free but non-adjacent:
  // still maximal, nothing to rematch.
  MutationBatch batch;
  batch.remove_edge(2, 3);
  RunResult r = session.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);

  // Re-inserting it joins two free nodes: the maintainer must match them
  // on the spot or node 2 would reject.
  MutationBatch undo;
  undo.add_edge(2, 3);
  r = session.apply(undo);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  auto* maintainer = static_cast<MatchingMaintainer*>(session.maintainer());
  EXPECT_EQ(maintainer->stats().direct_matches, 1u);
  EXPECT_EQ(session.stats().reproves, 0u);
}

TEST(MatchingMaintainer, HealsOutOfBandBitEdit) {
  const schemes::MaximalMatchingScheme scheme;
  VerificationSession session =
      VerificationSession::on(matched_path6())
          .scheme(scheme)
          .maintainer(std::make_unique<MatchingMaintainer>(
              schemes::MaximalMatchingScheme::kMatchedBit))
          .build();
  ASSERT_TRUE(session.maintainer_bound());
  MutationBatch tamper;
  tamper.set_edge_label(0, 1, 0);  // clear the matched bit behind our back
  const RunResult r = session.apply(tamper);
  EXPECT_TRUE(r.all_accept);
  expect_matches_reference(session, r);
  auto* maintainer = static_cast<MatchingMaintainer*>(session.maintainer());
  EXPECT_EQ(maintainer->stats().healed_labels, 1u);
  EXPECT_EQ(session.stats().reproves, 0u);
  // The healed label is back on the graph.
  EXPECT_EQ(session.graph().edge_label(session.graph().edge_index(0, 1)),
            schemes::MaximalMatchingScheme::kMatchedBit);
}

// --------------------------------------------------- session without one --

TEST(SessionWithoutMaintainer, ReprovesEveryBatch) {
  static const schemes::LeaderElectionScheme scheme;
  Graph g = gen::cycle(8);
  g.set_label(0, schemes::kLeaderFlag);
  VerificationSession session =
      VerificationSession::on(std::move(g))
          .scheme(scheme)
          .maintainer(nullptr)
          .build();
  EXPECT_FALSE(session.maintainer_bound());
  for (int i = 0; i < 3; ++i) {
    MutationBatch batch;
    batch.remove_edge(i, i + 1);
    batch.add_edge(i, i + 1);
    const RunResult r = session.apply(batch);
    EXPECT_TRUE(r.all_accept);
    expect_matches_reference(session, r);
  }
  EXPECT_EQ(session.stats().reproves, 3u);
  EXPECT_EQ(session.stats().repaired, 0u);
}

}  // namespace
}  // namespace lcp
