// SpotCheckEngine: the statistical harness for the randomized tier.
//
// The load-bearing claims, each pinned here:
//
//   * Detection probability.  On a pool of uniformly weighted dirty balls,
//     a planted single-ball tamper is detected per batch with probability
//     exactly k/|pool| (sampling without replacement, uniform weights).
//     Measured over hundreds of seeded trials per budget, the detection
//     frequency must sit within a Hoeffding-style tolerance of that
//     probability — and the probability itself is >= the configured
//     budget, the advertised floor.
//   * Escalation.  A sampled rejection NEVER reaches the caller as-is:
//     the reported rejection always comes from the inner exact engine's
//     full dirty sweep, so REJECT verdicts are exact by construction.
//   * Bounded latency.  Sampled balls leave the pool, so with no new dirt
//     the pool drains and a tamper is found within ~|pool|/k runs.
//   * budget == 0 degenerates to the inner engine bit-identically: every
//     RunResult field equal on every step of a shared mutation schedule.
//   * Error accounting.  miss_bound decays per survived run by the
//     provable per-entry exclusion bound — exactly (1 - k/|pool|) on a
//     uniform pool, (1 - w/W)^k on a boosted one — remains an upper
//     bound on the measured never-sampled frequency when importance
//     boosts skew the pool, and drops to 0 whenever an exact run
//     settles the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/session.hpp"
#include "core/spot_check.hpp"
#include "graph/generators.hpp"
#include "obs/journal.hpp"
#include "schemes/lcp_const.hpp"

namespace lcp {
namespace {

/// n isolated nodes: every radius-1 ball is a single node, so the pool's
/// entries are independent and detection probability is exactly k/|pool|.
Graph isolated_nodes(int n) {
  Graph g;
  for (int i = 0; i < n; ++i) g.add_node(static_cast<NodeId>(i + 1));
  return g;
}

/// Accepts iff the centre's proof starts with a 1-bit ("1", "11", ... all
/// accept; "0" and the empty string reject).  Length changes let innocent
/// churn dirty a ball without changing its verdict.
std::unique_ptr<LocalVerifier> first_bit_verifier() {
  return std::make_unique<LambdaVerifier>(1, [](const View& v) {
    const BitString& bits = v.proof_of(v.center);
    return bits.size() >= 1 && bits.bit(0);
  });
}

Proof all_ones(int n) {
  Proof p = Proof::empty(n);
  for (BitString& b : p.labels) b = BitString::from_string("1");
  return p;
}

// ---------------------------------------------------------------------------
// Detection probability, measured.
// ---------------------------------------------------------------------------

struct TrialOutcome {
  bool detected = false;
};

/// One seeded trial: dirty `pool` balls (one tampered), run once, report
/// whether the tamper was caught.  Fresh engine per trial so trials are
/// independent draws of the sampling stream.
TrialOutcome run_trial(int pool, double budget, std::uint64_t seed,
                       int tamper) {
  const int n = pool + 8;  // a few never-dirtied bystanders
  Graph g = isolated_nodes(n);
  Proof p = all_ones(n);
  auto verifier = first_bit_verifier();
  DeltaTracker tracker(g, p, 1);
  SpotCheckEngine engine(std::make_unique<SweepEngine>(1),
                         {.budget = budget, .seed = seed});
  engine.attach_tracker(&tracker);

  // Cold exact run establishes the accepting baseline.
  RunResult warm = engine.run(g, p, *verifier);
  EXPECT_TRUE(warm.all_accept);

  MutationBatch batch;
  for (int v = 0; v < pool; ++v) {
    batch.set_proof_label(
        v, BitString::from_string(v == tamper ? "0" : "11"));
  }
  tracker.apply(batch);

  const RunResult r = engine.run(g, p, *verifier);
  TrialOutcome out;
  out.detected = !r.all_accept;
  if (out.detected) {
    // The rejection must be the escalated exact verdict, never the raw
    // sample: exactly the tampered centre, via exactly one escalation.
    EXPECT_EQ(r.rejecting, std::vector<int>{tamper});
    EXPECT_EQ(engine.stats().escalations, 1u);
    EXPECT_EQ(engine.stats().miss_bound, 0.0);
    EXPECT_EQ(engine.stats().pool_size, 0u);
  } else {
    EXPECT_EQ(engine.stats().escalations, 0u);
  }
  engine.attach_tracker(nullptr);
  return out;
}

TEST(SpotCheckStatistics, DetectionProbabilityMeetsBudget) {
  constexpr int kPool = 32;
  constexpr int kTrials = 600;  // per budget; >= the issue's 200 floor
  // Hoeffding: P(|freq - p| > eps) <= 2 exp(-2 N eps^2) = delta.
  constexpr double kDelta = 1e-6;
  const double eps =
      std::sqrt(std::log(2.0 / kDelta) / (2.0 * kTrials));

  const double budgets[] = {0.125, 0.25, 0.5};
  std::uint64_t seed = 1;
  for (const double budget : budgets) {
    const int k = static_cast<int>(std::ceil(budget * kPool));
    const double expect_p = static_cast<double>(k) / kPool;
    std::mt19937 tamper_rng(static_cast<std::uint32_t>(budget * 1000));
    int detections = 0;
    for (int t = 0; t < kTrials; ++t) {
      const int tamper =
          std::uniform_int_distribution<int>(0, kPool - 1)(tamper_rng);
      if (run_trial(kPool, budget, seed++, tamper).detected) ++detections;
    }
    const double freq = static_cast<double>(detections) / kTrials;
    EXPECT_NEAR(freq, expect_p, eps)
        << "budget " << budget << ": " << detections << "/" << kTrials;
    // The advertised floor: per-batch detection probability >= budget.
    EXPECT_GE(freq + eps, budget) << "budget " << budget;
  }
}

TEST(SpotCheckStatistics, TamperDetectedWithinPoolDrain) {
  // Sampling without replacement drains the pool, so with no new dirt a
  // planted tamper must surface within |pool| runs — and in expectation
  // within ~1/budget of them.  Every seed must detect eventually.
  constexpr int kPool = 32;
  constexpr double kBudget = 0.125;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const int n = kPool + 4;
    Graph g = isolated_nodes(n);
    Proof p = all_ones(n);
    auto verifier = first_bit_verifier();
    DeltaTracker tracker(g, p, 1);
    SpotCheckEngine engine(std::make_unique<SweepEngine>(1),
                           {.budget = kBudget, .seed = seed});
    engine.attach_tracker(&tracker);
    EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);

    const int tamper = static_cast<int>(seed % kPool);
    MutationBatch batch;
    for (int v = 0; v < kPool; ++v) {
      batch.set_proof_label(
          v, BitString::from_string(v == tamper ? "0" : "11"));
    }
    tracker.apply(batch);

    int runs = 0;
    bool detected = false;
    while (runs < kPool && !detected) {
      ++runs;
      const RunResult r = engine.run(g, p, *verifier);
      detected = !r.all_accept;
      if (detected) {
        EXPECT_EQ(r.rejecting, std::vector<int>{tamper}) << "seed " << seed;
      }
    }
    EXPECT_TRUE(detected) << "seed " << seed;
    EXPECT_GE(engine.stats().escalations, 1u) << "seed " << seed;
    engine.attach_tracker(nullptr);
  }
}

TEST(SpotCheckStatistics, MissBoundIsSoundUnderImportanceBoosts) {
  // Regression for the weighted-pool accounting.  With boosts active, a
  // weight-1 entry's inclusion probability falls BELOW k/|pool| (the
  // boosted entries absorb the budget), so the naive uniform decay
  // 1 - k/|pool| is NOT an upper bound on its never-sampled
  // probability.  Measure that probability for a watched weight-1
  // centre over seeded trials and pin it (a) under the engine's
  // recorded per-entry bound (1 - 1/W)^k and (b) ABOVE the uniform
  // factor by more than the statistical tolerance — i.e. the uniform
  // factor really would have under-reported the miss here.
  constexpr int kPool = 32;
  constexpr int kBoosted = 16;  // centres 0..15, boosted via note_repair
  constexpr double kRepairWeight = 16.0;
  constexpr double kBudget = 0.25;
  constexpr int kTrials = 600;
  constexpr int kWatch = kBoosted;  // first unboosted (weight-1) centre
  const int k = static_cast<int>(std::ceil(kBudget * kPool));
  const double total_weight =
      kBoosted * kRepairWeight + (kPool - kBoosted);
  const double weight1_bound =
      std::pow(1.0 - 1.0 / total_weight, static_cast<double>(k));
  const double uniform_factor = 1.0 - static_cast<double>(k) / kPool;

  int missed = 0;
  for (int t = 0; t < kTrials; ++t) {
    Graph g = isolated_nodes(kPool);
    Proof p = all_ones(kPool);
    auto verifier = first_bit_verifier();
    DeltaTracker tracker(g, p, 1);
    SpotCheckEngine engine(
        std::make_unique<SweepEngine>(1),
        {.budget = kBudget,
         .seed = 0xabcd0000ULL + static_cast<std::uint64_t>(t),
         .repair_weight = kRepairWeight});
    engine.attach_tracker(&tracker);
    ASSERT_TRUE(engine.run(g, p, *verifier).all_accept);

    std::vector<int> boosted;
    for (int v = 0; v < kBoosted; ++v) boosted.push_back(v);
    engine.note_repair(boosted);
    MutationBatch batch;
    for (int v = 0; v < kPool; ++v) {
      batch.set_proof_label(v, BitString::from_string("11"));
    }
    tracker.apply(batch);
    ASSERT_TRUE(engine.run(g, p, *verifier).all_accept);

    const std::vector<int>& sample = engine.last_sample();
    if (!std::binary_search(sample.begin(), sample.end(), kWatch)) {
      ++missed;
      // The watched weight-1 entry survived, so the worst outstanding
      // bound is the weight-1 exclusion factor — recorded exactly.
      EXPECT_DOUBLE_EQ(engine.stats().miss_bound, weight1_bound);
    }
    engine.attach_tracker(nullptr);
  }

  const double freq = static_cast<double>(missed) / kTrials;
  constexpr double kDelta = 1e-4;
  const double eps = std::sqrt(std::log(2.0 / kDelta) / (2.0 * kTrials));
  EXPECT_LE(freq, weight1_bound + eps);
  EXPECT_GT(freq, uniform_factor + eps);
}

// ---------------------------------------------------------------------------
// budget == 0: bit-identical delegation.
// ---------------------------------------------------------------------------

TEST(SpotCheck, BudgetZeroIsBitIdenticalToInner) {
  // Twin incremental engines over twin state replicas, one bare and one
  // wrapped at budget 0, fed the identical mutation schedule: the verdict,
  // the rejecting set and the evaluated count must match on every step,
  // and the wrapper must never sample.
  const Graph start = gen::random_connected(24, 0.12, 77);
  auto verifier = std::make_unique<LambdaVerifier>(1, [](const View& v) {
    return v.proof_of(v.center).size() <= 2;  // random bits reject sometimes
  });

  Graph g_bare = start;
  Graph g_spot = start;
  Proof p_bare = Proof::empty(start.n());
  Proof p_spot = Proof::empty(start.n());
  DeltaTracker tr_bare(g_bare, p_bare, 1);
  DeltaTracker tr_spot(g_spot, p_spot, 1);
  IncrementalEngine bare;
  SpotCheckEngine spot(std::make_unique<IncrementalEngine>(),
                       {.budget = 0.0, .seed = 9});
  ASSERT_TRUE(bare.attach_tracker(&tr_bare));
  ASSERT_TRUE(spot.attach_tracker(&tr_spot));

  std::mt19937 rng(4242);
  int runs = 0;
  auto step = [&](const MutationBatch& batch) {
    if (!batch.empty()) {
      tr_bare.apply(batch);
      tr_spot.apply(batch);
    }
    ++runs;
    const RunResult want = bare.run(g_bare, p_bare, *verifier);
    const RunResult got = spot.run(g_spot, p_spot, *verifier);
    ASSERT_EQ(want.all_accept, got.all_accept);
    ASSERT_EQ(want.rejecting, got.rejecting);
    ASSERT_EQ(want.evaluated, got.evaluated);
  };

  step(MutationBatch{});
  for (int round = 0; round < 60; ++round) {
    MutationBatch batch;
    const int node =
        std::uniform_int_distribution<int>(0, start.n() - 1)(rng);
    switch (rng() % 3) {
      case 0: {
        BitString bits;
        const int len = static_cast<int>(rng() % 4);
        for (int i = 0; i < len; ++i) bits.append_bit(rng() % 2 != 0);
        batch.set_proof_label(node, bits);
        break;
      }
      case 1:
        batch.set_node_label(node, rng() % 4);
        break;
      default:
        batch.set_proof_label(node, BitString{});
        break;
    }
    step(batch);
  }

  EXPECT_EQ(spot.stats().sampled_runs, 0u);
  EXPECT_EQ(spot.stats().balls_sampled, 0u);
  EXPECT_EQ(spot.stats().exact_runs, static_cast<std::uint64_t>(runs));
  EXPECT_EQ(spot.stats().miss_bound, 0.0);
  bare.attach_tracker(nullptr);
  spot.attach_tracker(nullptr);
}

// ---------------------------------------------------------------------------
// Error accounting and audits.
// ---------------------------------------------------------------------------

TEST(SpotCheck, MissBoundDecaysGeometricallyAndSettlesToZero) {
  constexpr int kPool = 32;
  const int n = kPool;
  Graph g = isolated_nodes(n);
  Proof p = all_ones(n);
  auto verifier = first_bit_verifier();
  DeltaTracker tracker(g, p, 1);
  SpotCheckEngine engine(std::make_unique<SweepEngine>(1),
                         {.budget = 0.5, .seed = 3});
  engine.attach_tracker(&tracker);
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);

  MutationBatch batch;
  for (int v = 0; v < kPool; ++v) {
    batch.set_proof_label(v, BitString::from_string("11"));
  }
  tracker.apply(batch);

  // Each run samples half the remaining pool: 32 -> 16 -> 8 -> ... and the
  // survivors' miss bound halves in lockstep.
  double expected_bound = 1.0;
  std::size_t expected_pool = kPool;
  while (expected_pool > 0) {
    EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
    expected_bound *= 0.5;
    expected_pool -= expected_pool / 2 + (expected_pool % 2);
    EXPECT_EQ(engine.stats().pool_size, expected_pool);
    if (expected_pool > 0) {
      EXPECT_DOUBLE_EQ(engine.stats().miss_bound, expected_bound);
    }
  }
  // Pool drained: the bound settles to zero and further runs are
  // unchanged-state no-ops.
  EXPECT_EQ(engine.stats().miss_bound, 0.0);
  EXPECT_EQ(engine.stats().balls_sampled,
            static_cast<std::uint64_t>(kPool));
  const std::uint64_t sampled_runs = engine.stats().sampled_runs;
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  EXPECT_EQ(engine.stats().sampled_runs, sampled_runs);
  EXPECT_GE(engine.stats().unchanged_runs, 1u);
  engine.attach_tracker(nullptr);
}

TEST(SpotCheck, AuditEscalatesToExactAndSettlesThePool) {
  const int n = 24;
  Graph g = isolated_nodes(n);
  Proof p = all_ones(n);
  auto verifier = first_bit_verifier();
  DeltaTracker tracker(g, p, 1);
  auto journal = std::make_shared<obs::Journal>();
  SpotCheckEngine engine(std::make_unique<IncrementalEngine>(),
                         {.budget = 0.1, .seed = 17});
  engine.attach_tracker(&tracker);
  engine.attach_journal(journal.get());
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);

  MutationBatch batch;
  for (int v = 0; v < n; ++v) {
    batch.set_proof_label(v, BitString::from_string("11"));
  }
  tracker.apply(batch);
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);  // sampled
  EXPECT_GT(engine.stats().pool_size, 0u);
  EXPECT_GT(engine.stats().miss_bound, 0.0);

  engine.request_audit();
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  EXPECT_EQ(engine.stats().audits, 1u);
  EXPECT_EQ(engine.stats().escalations, 1u);
  EXPECT_EQ(engine.stats().pool_size, 0u);
  EXPECT_EQ(engine.stats().miss_bound, 0.0);

  // The audit is one-shot: the next dirty run samples again.
  MutationBatch more;
  for (int v = 0; v < n; ++v) {
    more.set_proof_label(v, BitString::from_string("1"));
  }
  tracker.apply(more);
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  EXPECT_EQ(engine.stats().audits, 1u);
  EXPECT_GT(engine.stats().pool_size, 0u);

  // The flight recorder saw both kinds.
  bool saw_sample = false;
  bool saw_escalate = false;
  for (const obs::JournalEvent& e : journal->events()) {
    if (e.kind == obs::JournalEventKind::kSpotSample) saw_sample = true;
    if (e.kind == obs::JournalEventKind::kSpotEscalate) saw_escalate = true;
  }
  EXPECT_TRUE(saw_sample);
  EXPECT_TRUE(saw_escalate);
  engine.attach_tracker(nullptr);
}

TEST(SpotCheck, AuditOnColdStartFallbackIsStillAccounted) {
  // request_audit() before any baseline exists lands on the cold-start
  // exact fallback, not the dedicated audit branch; the audit must still
  // be counted and journalled, not silently swallowed with the flag.
  const int n = 8;
  Graph g = isolated_nodes(n);
  Proof p = all_ones(n);
  auto verifier = first_bit_verifier();
  DeltaTracker tracker(g, p, 1);
  auto journal = std::make_shared<obs::Journal>();
  SpotCheckEngine engine(std::make_unique<SweepEngine>(1),
                         {.budget = 0.5, .seed = 21});
  engine.attach_tracker(&tracker);
  engine.attach_journal(journal.get());

  engine.request_audit();
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  EXPECT_EQ(engine.stats().audits, 1u);
  EXPECT_EQ(engine.stats().escalations, 1u);
  bool saw_escalate = false;
  for (const obs::JournalEvent& e : journal->events()) {
    if (e.kind == obs::JournalEventKind::kSpotEscalate) saw_escalate = true;
  }
  EXPECT_TRUE(saw_escalate);

  // One-shot: the flag is consumed, the next run is an ordinary one.
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  EXPECT_EQ(engine.stats().audits, 1u);
  EXPECT_EQ(engine.stats().escalations, 1u);
  engine.attach_tracker(nullptr);
}

TEST(SpotCheck, RepairBoostReachesEntriesAlreadyInThePool) {
  // note_repair's contract covers centres *sitting in* the pool, not
  // only centres dirtied afterwards: boost the survivors of one sampled
  // run, add one fresh unboosted centre, and check the next run's miss
  // bounds follow the weighted per-entry factors, not the uniform one.
  const int n = 4;
  Graph g = isolated_nodes(n);
  Proof p = all_ones(n);
  auto verifier = first_bit_verifier();
  DeltaTracker tracker(g, p, 1);
  SpotCheckEngine engine(std::make_unique<SweepEngine>(1),
                         {.budget = 1.0 / 3.0, .seed = 5});
  engine.attach_tracker(&tracker);
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);

  // Run 1: pool {0,1,2}, k = 1 — two uniform survivors with miss 2/3.
  MutationBatch batch;
  for (int v = 0; v < 3; ++v) {
    batch.set_proof_label(v, BitString::from_string("11"));
  }
  tracker.apply(batch);
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  ASSERT_EQ(engine.stats().pool_size, 2u);
  const double first_factor = 1.0 - 1.0 / 3.0;
  EXPECT_DOUBLE_EQ(engine.stats().miss_bound, first_factor);
  std::vector<int> survivors;
  for (int v = 0; v < 3; ++v) {
    if (!std::binary_search(engine.last_sample().begin(),
                            engine.last_sample().end(), v)) {
      survivors.push_back(v);
    }
  }
  ASSERT_EQ(survivors.size(), 2u);

  // Run 2: boost the sitting survivors (default repair weight 1.5),
  // dirty fresh centre 3 (weight 1).  Pool {s1:1.5, s2:1.5, 3:1.0},
  // W = 4, k = 1.
  engine.note_repair(survivors);
  MutationBatch more;
  more.set_proof_label(3, BitString::from_string("11"));
  tracker.apply(more);
  EXPECT_TRUE(engine.run(g, p, *verifier).all_accept);
  ASSERT_EQ(engine.stats().pool_size, 2u);

  const double uniform_factor = 1.0 - 1.0 / 3.0;
  const double boosted_factor =
      std::min(std::pow(1.0 - 1.5 / 4.0, 1.0), uniform_factor);
  const double fresh_factor = std::pow(1.0 - 1.0 / 4.0, 1.0);
  const bool fresh_sampled = std::binary_search(
      engine.last_sample().begin(), engine.last_sample().end(), 3);
  const double expected =
      fresh_sampled ? first_factor * boosted_factor : fresh_factor;
  EXPECT_DOUBLE_EQ(engine.stats().miss_bound, expected);
  // Either way the bound differs from what an unboosted (uniform) pool
  // would have produced — the sitting survivors did get the boost.
  EXPECT_NE(engine.stats().miss_bound,
            fresh_sampled ? first_factor * uniform_factor : uniform_factor);
  engine.attach_tracker(nullptr);
}

// ---------------------------------------------------------------------------
// Spec grammar and factory registration.
// ---------------------------------------------------------------------------

TEST(SpotCheckSpecTest, ParsesBudgetAndInner) {
  const SpotCheckSpec d = parse_spotcheck_spec("spotcheck");
  EXPECT_DOUBLE_EQ(d.options.budget, 0.05);
  EXPECT_EQ(d.inner, "incremental");

  const SpotCheckSpec b = parse_spotcheck_spec("spotcheck:0.25");
  EXPECT_DOUBLE_EQ(b.options.budget, 0.25);
  EXPECT_EQ(b.inner, "incremental");

  const SpotCheckSpec i = parse_spotcheck_spec("spotcheck:0.01:direct");
  EXPECT_DOUBLE_EQ(i.options.budget, 0.01);
  EXPECT_EQ(i.inner, "direct");

  const SpotCheckSpec s = parse_spotcheck_spec("spotcheck:0.5:parallel");
  EXPECT_DOUBLE_EQ(s.options.budget, 0.5);
  EXPECT_EQ(s.inner, "parallel");

  EXPECT_THROW(parse_spotcheck_spec("spotcheck:"), std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotcheck:1.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotcheck:-0.1"),
               std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotcheck:abc"),
               std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotcheck:0.1:"),
               std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotcheck:0.1:spotcheck"),
               std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotcheck:0.1:spotcheck:0.2"),
               std::invalid_argument);
  EXPECT_THROW(parse_spotcheck_spec("spotchec"), std::invalid_argument);
}

TEST(SpotCheckSpecTest, FactoryBuildsAndRejects) {
  auto engine = make_engine("spotcheck:0.1:direct");
  EXPECT_EQ(engine->name(), "spotcheck");
  auto& spot = static_cast<SpotCheckEngine&>(*engine);
  EXPECT_DOUBLE_EQ(spot.budget(), 0.1);
  EXPECT_EQ(spot.inner().name(), "direct");
  EXPECT_THROW(make_engine("spotcheck:0.1:warp-drive"),
               std::invalid_argument);
  EXPECT_THROW(
      SpotCheckEngine(nullptr, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Session integration.
// ---------------------------------------------------------------------------

TEST(SpotCheckSession, StatsSurfaceAndAuditIsExact) {
  const schemes::BipartiteScheme scheme;
  auto session = VerificationSession::on(gen::grid(4, 4))
                     .scheme(scheme)
                     .engine("spotcheck:0.5")
                     .build();
  ASSERT_NE(session.spot_check_engine(), nullptr);
  // The default inner is incremental and stays reachable for tuning.
  ASSERT_NE(session.incremental_engine(), nullptr);
  EXPECT_EQ(session.engine().name(), "spotcheck");
  EXPECT_TRUE(session.verify().all_accept);

  // Node-label churn dirties balls without threatening bipartiteness, so
  // every batch feeds the pool and the verdict stays accepting.
  std::mt19937 rng(8);
  for (int round = 0; round < 12; ++round) {
    MutationBatch batch;
    for (int i = 0; i < 4; ++i) {
      batch.set_node_label(
          std::uniform_int_distribution<int>(0, 15)(rng), rng() % 8);
    }
    EXPECT_TRUE(session.apply(batch).all_accept) << "round " << round;
  }
  EXPECT_GT(session.stats().spot_sampled, 0u);
  EXPECT_EQ(session.stats().spot_escalations, 0u);
  EXPECT_LE(session.stats().spot_miss_bound, 1.0);

  // Tamper the proof out of band of the scheme (no maintainer bound, the
  // session reproves; tamper again *after* the repair via a raw tracker
  // write would be out of contract, so instead audit the healthy state).
  session.spot_check_engine()->request_audit();
  EXPECT_TRUE(session.verify().all_accept);
  EXPECT_EQ(session.stats().spot_escalations, 1u);
  EXPECT_EQ(session.stats().spot_miss_bound, 0.0);
}

TEST(SpotCheckSession, BuilderAcceptsInnerSpecsAndOptions) {
  const schemes::BipartiteScheme scheme;
  auto session = VerificationSession::on(gen::grid(3, 3))
                     .scheme(scheme)
                     .engine("spotcheck:0.25:parallel")
                     .spotcheck_options({.budget = 1.0, .seed = 99})
                     .build();
  ASSERT_NE(session.spot_check_engine(), nullptr);
  EXPECT_EQ(session.incremental_engine(), nullptr);
  // spotcheck_options() overrides the parsed budget.
  EXPECT_DOUBLE_EQ(session.spot_check_engine()->budget(), 1.0);
  EXPECT_EQ(session.spot_check_engine()->inner().name(), "parallel");
  EXPECT_TRUE(session.verify().all_accept);

  MutationBatch batch;
  batch.set_node_label(0, 5);
  EXPECT_TRUE(session.apply(batch).all_accept);
  // Budget 1 verifies the whole pool: nothing is ever skipped.
  EXPECT_EQ(session.stats().spot_skipped, 0u);

  EXPECT_THROW(VerificationSession::on(gen::grid(2, 2))
                   .scheme(scheme)
                   .engine("spotcheck:2.0"),
               std::invalid_argument);
}

}  // namespace
}  // namespace lcp
