// Rejection-forensics correctness, fuzzed over churn streams:
//
//   (a) observability is free of observable effects — a session with
//       journal + forensics + telemetry on produces bit-identical
//       verdicts, rejecting sets, graph fingerprints, and tracker state
//       fingerprints to a bare session fed the same stream;
//   (b) every shrunken minimal batch still rejects when plain-applied to
//       the pre-flip state, and never exceeds the original window;
//   (c) every witness ball independently re-verifies as rejecting — the
//       paper's locality argument made concrete: the report carries the
//       exact radius-r evidence, checkable with no engine or session.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algo/matching.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "obs/forensics.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

int pick_node(std::mt19937& rng, const Graph& g) {
  return std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
}

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

/// A leader-election start state: connected, node 0 flagged.
Graph leader_start(int n, unsigned seed) {
  Graph g = gen::random_connected(n, 0.1, seed);
  g.set_label(0, schemes::kLeaderFlag);
  return g;
}

/// Flags the greedy maximal matching in-place (matched bit on edge labels).
void flag_matching(Graph* g) {
  const std::vector<bool> matched = greedy_maximal_matching(*g);
  for (int e = 0; e < g->m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      g->set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }
}

// ---------------------------------------------------------------------------
// apply_plain mirrors the tracker.
// ---------------------------------------------------------------------------

TEST(ApplyPlain, MatchesTrackerAcrossAllOpKinds) {
  Graph g = gen::random_connected(12, 0.2, 7);
  Proof p = Proof::empty(g.n());
  Graph mirror_g = g;
  Proof mirror_p = p;

  MutationBatch batch;
  batch.set_node_label(3, 42);
  batch.set_edge_label(g.edge_u(0), g.edge_v(0), 9);
  batch.set_edge_weight(g.edge_u(1), g.edge_v(1), -5);
  batch.set_proof_label(4, BitString::from_string("1011"));
  const auto [au, av] = [&] {
    for (int u = 0; u < g.n(); ++u) {
      for (int v = u + 1; v < g.n(); ++v) {
        if (!g.has_edge(u, v)) return std::pair<int, int>{u, v};
      }
    }
    return std::pair<int, int>{-1, -1};
  }();
  batch.add_edge(au, av, 1, 2);
  batch.remove_edge(g.edge_u(2), g.edge_v(2));
  batch.add_node(999, 5);

  DeltaTracker tracker(g, p, /*horizon=*/2);
  tracker.apply(batch);
  ASSERT_TRUE(obs::apply_plain(batch, &mirror_g, &mirror_p));
  EXPECT_EQ(graph_fingerprint(g), graph_fingerprint(mirror_g));
  EXPECT_EQ(DeltaTracker::state_fingerprint_of(g, p),
            DeltaTracker::state_fingerprint_of(mirror_g, mirror_p));
}

TEST(ApplyPlain, RefusesInapplicableOps) {
  Graph g = gen::path(4);
  Proof p = Proof::empty(g.n());
  {
    MutationBatch bad;
    bad.remove_edge(0, 3);  // absent
    Graph c = g;
    Proof q = p;
    EXPECT_FALSE(obs::apply_plain(bad, &c, &q));
  }
  {
    MutationBatch bad;
    bad.add_edge(0, 1);  // already present
    Graph c = g;
    Proof q = p;
    EXPECT_FALSE(obs::apply_plain(bad, &c, &q));
  }
  {
    MutationBatch bad;
    bad.add_node(g.id(0));  // duplicate id
    Graph c = g;
    Proof q = p;
    EXPECT_FALSE(obs::apply_plain(bad, &c, &q));
  }
  {
    MutationBatch bad;
    bad.set_node_label(99, 1);  // out of range
    Graph c = g;
    Proof q = p;
    EXPECT_FALSE(obs::apply_plain(bad, &c, &q));
  }
}

// ---------------------------------------------------------------------------
// (a) Observability changes nothing observable.
// ---------------------------------------------------------------------------

TEST(ForensicsFuzz, VerdictsBitIdenticalWithForensicsOnAndOff) {
  const Graph start = leader_start(20, 20260808);
  auto plain = VerificationSession::on(start)
                   .scheme("leader-election")
                   .engine(EngineKind::kIncremental)
                   .maintain(true)
                   .build();
  auto instrumented = VerificationSession::on(start)
                          .scheme("leader-election")
                          .engine(EngineKind::kIncremental)
                          .maintain(true)
                          .telemetry(true)
                          .journal(true)
                          .forensics(true)
                          .build();

  std::mt19937 rng(101);
  int leader = 0;
  bool leaderless = false;
  int flips_seen = 0;
  for (int step = 0; step < 120; ++step) {
    const Graph& g = plain.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 35) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 60) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else if (roll < 80) {
      const int v = pick_node(rng, g);
      if (!leaderless && v != leader) {
        batch.set_node_label(leader, 0);
        batch.set_node_label(v, schemes::kLeaderFlag);
        leader = v;
      }
    } else if (roll < 90) {
      // Input tamper: clear the leader flag so no valid proof exists and
      // the verdict flips to reject (reprove cannot heal a false
      // property) — the forensic capture path.
      if (!leaderless) {
        batch.set_node_label(leader, 0);
        leaderless = true;
      }
    } else {
      if (leaderless) {
        batch.set_node_label(leader, schemes::kLeaderFlag);
        leaderless = false;
      }
    }
    if (batch.empty()) continue;

    const RunResult want = plain.apply(batch);
    const RunResult got = instrumented.apply(batch);
    ASSERT_EQ(want.all_accept, got.all_accept) << "step " << step;
    ASSERT_EQ(want.rejecting, got.rejecting) << "step " << step;
    ASSERT_EQ(graph_fingerprint(plain.graph()),
              graph_fingerprint(instrumented.graph()))
        << "step " << step;
    ASSERT_EQ(plain.tracker().state_fingerprint(),
              instrumented.tracker().state_fingerprint())
        << "step " << step;
    if (!want.all_accept && instrumented.last_rejection().has_value()) {
      ++flips_seen;
    }
  }
  // The stream must actually have exercised the capture machinery.
  EXPECT_TRUE(instrumented.last_rejection().has_value() || flips_seen > 0);
  EXPECT_GT(instrumented.journal()->total_emitted(), 0u);
  EXPECT_FALSE(plain.last_rejection().has_value());
}

// ---------------------------------------------------------------------------
// (b) + (c) Shrunken batches still reject; witnesses re-verify.
// ---------------------------------------------------------------------------

/// Checks one report against the pre/post states the test mirrored.
void check_report(const obs::RejectionReport& report,
                  const Graph& pre_graph, const Proof& pre_proof,
                  const Graph& post_graph, const Proof& post_proof,
                  const LocalVerifier& verifier, const RunResult& result,
                  std::size_t window_ops, int step) {
  // The shrink never grows the window and always still rejects.
  ASSERT_FALSE(report.minimal_batch.empty()) << "step " << step;
  ASSERT_LE(report.minimal_batch.size(), window_ops) << "step " << step;
  if (report.raw_batch_rejects) {
    ASSERT_LE(report.minimal_batch.size(), report.mutation_batch.size())
        << "step " << step;
  }
  Graph g = pre_graph;
  Proof p = pre_proof;
  ASSERT_TRUE(obs::apply_plain(report.minimal_batch, &g, &p))
      << "step " << step;
  const RunResult shrunk = sweep_sequential(g, p, verifier);
  ASSERT_FALSE(shrunk.all_accept) << "step " << step;

  // Every witness is self-contained rejecting evidence, and its view is
  // bit-identical to a fresh extraction from the post state.
  ASSERT_FALSE(report.witnesses.empty()) << "step " << step;
  for (const obs::RejectionWitness& w : report.witnesses) {
    ASSERT_TRUE(std::binary_search(result.rejecting.begin(),
                                   result.rejecting.end(), w.center))
        << "step " << step;
    EXPECT_FALSE(verifier.accept(w.view))
        << "witness " << w.center << " step " << step;
    const View fresh =
        extract_view(post_graph, post_proof, w.center, verifier.radius());
    EXPECT_TRUE(views_bit_identical(w.view, fresh))
        << "witness " << w.center << " step " << step;
  }

  // Context and serialisation.
  EXPECT_EQ(report.rejecting, result.rejecting) << "step " << step;
  EXPECT_EQ(report.radius, verifier.radius()) << "step " << step;
  const std::string json = report.to_json();
  for (const char* key :
       {"\"batch_index\":", "\"scheme\":", "\"engine\":", "\"witnesses\":",
        "\"minimal_batch\":", "\"journal_window\":", "\"repair_history\":",
        "\"raw_batch_rejects\":", "\"shrink_evals\":"}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << key << " step " << step;
  }
}

TEST(ForensicsFuzz, ComposedSchemeUnderChurnYieldsReVerifiableReports) {
  Graph start = leader_start(18, 424242);
  flag_matching(&start);
  auto session = VerificationSession::on(start)
                     .scheme("leader-election & maximal-matching")
                     .engine(EngineKind::kIncremental)
                     .maintain(true)
                     .journal(true)
                     .forensics(true)
                     .build();

  std::mt19937 rng(77);
  int leader = 0;
  bool tampered = false;
  int reports_checked = 0;
  for (int step = 0; step < 140 || reports_checked == 0; ++step) {
    ASSERT_LT(step, 400) << "stream never produced a rejection report";
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 30) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 50) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else if (roll < 70) {
      const int v = pick_node(rng, g);
      if (!tampered && v != leader) {
        batch.set_node_label(leader, 0);
        batch.set_node_label(v, schemes::kLeaderFlag);
        leader = v;
      }
    } else if (roll < 85) {
      // The tamper: strip the leader flag, sometimes alongside innocent
      // churn ops the shrink should discard.
      if (!tampered) {
        if (roll < 78) {
          const auto [u, v] = pick_absent_edge(rng, g);
          if (u >= 0) batch.add_edge(u, v);
        }
        batch.set_node_label(leader, 0);
        tampered = true;
      }
    } else {
      if (tampered) {
        batch.set_node_label(leader, schemes::kLeaderFlag);
        tampered = false;
      }
    }
    if (batch.empty()) continue;

    const Graph pre_graph = session.graph();
    const Proof pre_proof = session.proof();
    const bool had_report = session.last_rejection().has_value();
    const std::uint64_t before_index =
        had_report ? session.last_rejection()->batch_index : 0;

    const RunResult result = session.apply(batch);

    const auto& report = session.last_rejection();
    const bool fresh_report =
        report.has_value() &&
        (!had_report || report->batch_index != before_index);
    if (fresh_report) {
      ASSERT_FALSE(result.all_accept) << "step " << step;
      const std::size_t window_ops =
          report->mutation_batch.size() + report->repair_batch.size();
      check_report(*report, pre_graph, pre_proof, session.graph(),
                   session.proof(), session.scheme().verifier(), result,
                   window_ops, step);
      EXPECT_EQ(report->scheme, session.scheme().name());
      EXPECT_EQ(report->engine, "incremental");
      EXPECT_FALSE(report->journal_window.empty()) << "step " << step;
      ++reports_checked;
    }
  }
  EXPECT_GE(reports_checked, 1);
  EXPECT_GT(session.stats().repaired, 0u);
}

TEST(ForensicsFuzz, ReportsAcrossEngineBackends) {
  // The capture path is engine-agnostic: every backend that can drive a
  // session must produce a re-verifiable report on the same tamper.
  for (const EngineKind kind :
       {EngineKind::kDirect, EngineKind::kMessagePassing,
        EngineKind::kParallel, EngineKind::kIncremental,
        EngineKind::kSpotCheck}) {
    Graph start = leader_start(14, 9001);
    auto session = VerificationSession::on(std::move(start))
                       .scheme("leader-election")
                       .engine(kind)
                       // Spot-check every dirty ball, so the tamper is
                       // sampled and escalates to an exact reject.
                       .spotcheck_options({.budget = 1.0})
                       .maintain(true)
                       .journal(true)
                       .forensics(true)
                       .build();
    // A healthy batch first, then the tamper.
    MutationBatch grow;
    grow.add_node(session.graph().max_id() + 1);
    grow.add_edge(session.graph().n(), 0);
    ASSERT_TRUE(session.apply(grow).all_accept)
        << "engine " << static_cast<int>(kind);

    const Graph pre_graph = session.graph();
    const Proof pre_proof = session.proof();
    MutationBatch tamper;
    tamper.set_node_label(0, 0);  // no leader anywhere
    const RunResult result = session.apply(tamper);
    ASSERT_FALSE(result.all_accept) << "engine " << static_cast<int>(kind);
    ASSERT_TRUE(session.last_rejection().has_value())
        << "engine " << static_cast<int>(kind);
    const obs::RejectionReport& report = *session.last_rejection();
    check_report(report, pre_graph, pre_proof, session.graph(),
                 session.proof(), session.scheme().verifier(), result,
                 report.mutation_batch.size() + report.repair_batch.size(),
                 static_cast<int>(kind));
    // The session diffs successive verdicts itself, so the flip set is
    // known on every backend.  The previous verdict accepted, so every
    // rejecting centre flipped.
    EXPECT_TRUE(result.flips_known) << "engine " << static_cast<int>(kind);
    EXPECT_FALSE(report.newly_rejecting.empty())
        << "engine " << static_cast<int>(kind);
    EXPECT_EQ(report.newly_rejecting, result.rejecting)
        << "engine " << static_cast<int>(kind);
    EXPECT_TRUE(result.newly_accepting.empty())
        << "engine " << static_cast<int>(kind);
  }
}

TEST(Forensics, SessionDiffsSuccessiveVerdicts) {
  // Flip attribution lives in the session, not the engine: the first
  // verdict has nothing to diff against, and later ones report exactly
  // the centres that flipped — here on the stateless direct backend.
  Graph start = leader_start(12, 77);
  auto session = VerificationSession::on(std::move(start))
                     .scheme("leader-election")
                     .engine(EngineKind::kDirect)
                     .maintain(true)
                     .build();
  const RunResult first = session.verify();
  EXPECT_TRUE(first.all_accept);
  EXPECT_FALSE(first.flips_known);

  MutationBatch tamper;
  tamper.set_node_label(0, 0);  // no leader anywhere
  const RunResult broken = session.apply(tamper);
  ASSERT_FALSE(broken.all_accept);
  EXPECT_TRUE(broken.flips_known);
  EXPECT_EQ(broken.newly_rejecting, broken.rejecting);
  EXPECT_TRUE(broken.newly_accepting.empty());

  const RunResult again = session.verify();  // unchanged: nothing flips
  EXPECT_TRUE(again.flips_known);
  EXPECT_EQ(again.rejecting, broken.rejecting);
  EXPECT_TRUE(again.newly_rejecting.empty());
  EXPECT_TRUE(again.newly_accepting.empty());

  MutationBatch heal;
  heal.set_node_label(0, schemes::kLeaderFlag);
  const RunResult healed = session.apply(heal);
  ASSERT_TRUE(healed.all_accept);
  EXPECT_TRUE(healed.flips_known);
  EXPECT_TRUE(healed.newly_rejecting.empty());
  EXPECT_EQ(healed.newly_accepting, broken.rejecting);
}

TEST(Forensics, ShrinkIsolatesTheTamperFromInnocentChurn) {
  // One batch carrying three innocent edge ops and one fatal label clear:
  // the greedy shrink must drop the noise and keep (at most a superset
  // containing) the tamper — and here, exactly the single fatal op.
  Graph start = leader_start(16, 5150);
  auto session = VerificationSession::on(std::move(start))
                     .scheme("leader-election")
                     .engine(EngineKind::kDirect)
                     .maintain(true)
                     .forensics(true)
                     .build();
  std::mt19937 rng(3);
  MutationBatch batch;
  for (int i = 0; i < 3; ++i) {
    const auto [u, v] = pick_absent_edge(rng, session.graph());
    if (u >= 0 && !session.graph().has_edge(u, v)) batch.add_edge(u, v);
  }
  batch.set_node_label(0, 0);  // the tamper

  const RunResult result = session.apply(batch);
  ASSERT_FALSE(result.all_accept);
  ASSERT_TRUE(session.last_rejection().has_value());
  const obs::RejectionReport& report = *session.last_rejection();
  EXPECT_TRUE(report.raw_batch_rejects);
  ASSERT_EQ(report.minimal_batch.size(), 1u);
  EXPECT_EQ(report.minimal_batch.ops()[0].kind,
            MutationBatch::Kind::kNodeLabel);
  EXPECT_EQ(report.minimal_batch.ops()[0].u, 0);
  EXPECT_GT(report.shrink_evals, 0u);
}

TEST(Forensics, ClearedAfterRequestAndAbsentWhenDisabled) {
  Graph start = leader_start(10, 31);
  auto session = VerificationSession::on(std::move(start))
                     .scheme("leader-election")
                     .engine(EngineKind::kIncremental)
                     .maintain(true)
                     .forensics(true)
                     .build();
  MutationBatch tamper;
  tamper.set_node_label(0, 0);
  ASSERT_FALSE(session.apply(tamper).all_accept);
  ASSERT_TRUE(session.last_rejection().has_value());
  session.clear_last_rejection();
  EXPECT_FALSE(session.last_rejection().has_value());
  // Still rejecting is not a new flip: no fresh report until re-accept.
  MutationBatch noise;
  noise.add_node(session.graph().max_id() + 1);
  noise.add_edge(session.graph().n(), 1);
  EXPECT_FALSE(session.apply(noise).all_accept);
  EXPECT_FALSE(session.last_rejection().has_value());
}

}  // namespace
}  // namespace lcp
