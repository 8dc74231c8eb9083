// BallStore semantics: refcounted sharing, copy-on-write isolation
// (engines sharing a store never observe each other's in-flight patches),
// LRU eviction under the memory cap, hit/miss counters, and the staleness
// regression — a store must never serve balls for a graph state they were
// not extracted from, even when an IncrementalEngine's lazily-invalidated
// graph fingerprint is in play and mutations are later reverted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/ball_store.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"

namespace lcp {
namespace {

/// Structure- and proof-sensitive radius-1 verifier.
const LocalVerifier& parity_verifier() {
  static const LambdaVerifier v(1, [](const View& view) {
    return (view.proof_of(view.center).size() +
            static_cast<std::size_t>(view.ball.degree(view.center))) %
               2 ==
           0;
  });
  return v;
}

Proof sized_proof(int n, int stride) {
  Proof p = Proof::empty(n);
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < (v * stride) % 3; ++i) {
      p.labels[static_cast<std::size_t>(v)].append_bit(true);
    }
  }
  return p;
}

void expect_equal(const RunResult& want, const RunResult& got,
                  const std::string& context) {
  ASSERT_EQ(want.all_accept, got.all_accept) << context;
  ASSERT_EQ(want.rejecting, got.rejecting) << context;
}

TEST(BallStore, ExclusiveBallClonesOnlyWhenShared) {
  auto ball = std::make_shared<CachedNodeView>();
  ball->host = {1, 2, 3};
  CachedNodeView* raw = ball.get();
  // Sole owner: no clone.
  EXPECT_EQ(&exclusive_ball(ball), raw);
  // Shared: mutation must clone, leaving the second owner untouched.
  BallPtr other = ball;
  CachedNodeView& mine = exclusive_ball(ball);
  EXPECT_NE(&mine, other.get());
  mine.host.push_back(4);
  EXPECT_EQ(other->host.size(), 3u);
  EXPECT_EQ(ball->host.size(), 4u);
}

TEST(BallStore, RefreshBallProofsIsLazyAndCOW) {
  Graph g = gen::cycle(4);
  Proof p = sized_proof(4, 1);
  auto ball = std::make_shared<CachedNodeView>();
  ball->view = extract_view(g, p, 0, 1);
  ball->host = {0, 1, 3};  // cycle(4): ball of 0 at radius 1
  BallPtr shared_copy = ball;
  // Identical proofs: no clone happens.
  refresh_ball_proofs(ball, p);
  EXPECT_EQ(ball.get(), shared_copy.get());
  // Changed proof: the refresh clones, the sharer keeps the old labels.
  Proof p2 = p;
  p2.labels[0].append_bit(false);
  refresh_ball_proofs(ball, p2);
  EXPECT_NE(ball.get(), shared_copy.get());
  EXPECT_TRUE(shared_copy->view.proofs[0] == p.labels[0]);
  EXPECT_TRUE(ball->view.proofs[0] == p2.labels[0]);
}

TEST(BallStore, LookupSharesPointersAndCounts) {
  BallStore store;
  std::vector<BallPtr> balls;
  for (int i = 0; i < 3; ++i) {
    auto b = std::make_shared<CachedNodeView>();
    b->host = {i};
    balls.push_back(std::move(b));
  }
  std::vector<BallPtr> out;
  EXPECT_FALSE(store.lookup(7, 1, &out));
  EXPECT_EQ(store.stats().misses, 1u);

  EXPECT_TRUE(store.publish(7, 1, balls, 3));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.ball_nodes(), 3u);
  ASSERT_TRUE(store.lookup(7, 1, &out));
  EXPECT_EQ(store.stats().hits, 1u);
  ASSERT_EQ(out.size(), 3u);
  // Shared ownership, not copies.
  EXPECT_EQ(out[0].get(), balls[0].get());
  EXPECT_EQ(store.lookup_ball(7, 1, 2).get(), balls[2].get());
  EXPECT_EQ(store.lookup_ball(7, 1, 5), nullptr);
  EXPECT_EQ(store.lookup_ball(8, 1, 0), nullptr);
}

TEST(BallStore, EvictionUnderMemoryCapAndEntryCap) {
  BallStore store({.max_ball_nodes = 10, .max_entries = 2});
  auto entry = [](int nodes) {
    std::vector<BallPtr> balls;
    for (int i = 0; i < nodes; ++i) {
      balls.push_back(std::make_shared<CachedNodeView>());
    }
    return balls;
  };
  EXPECT_TRUE(store.publish(1, 1, entry(4), 4));
  EXPECT_TRUE(store.publish(2, 1, entry(4), 4));
  EXPECT_EQ(store.entry_count(), 2u);
  // Third entry exceeds the entry cap: LRU (fingerprint 1) is evicted.
  EXPECT_TRUE(store.publish(3, 1, entry(4), 4));
  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_GE(store.stats().evictions, 1u);
  std::vector<BallPtr> out;
  EXPECT_FALSE(store.lookup(1, 1, &out));
  // An entry pushing the ball budget evicts down to fit.
  EXPECT_TRUE(store.publish(4, 1, entry(9), 9));
  EXPECT_LE(store.ball_nodes(), 10u);
  ASSERT_TRUE(store.lookup(4, 1, &out));
  // An entry larger than the whole budget is rejected.
  EXPECT_FALSE(store.publish(5, 1, entry(11), 11));
  EXPECT_FALSE(store.lookup(5, 1, &out));
  EXPECT_GE(store.stats().rejected, 1u);
}

TEST(BallStore, ConcurrentPublishLookupSmoke) {
  // Hammer one store from several threads — publishes, full lookups,
  // single-ball lookups, stats reads, COW mutations of adopted balls —
  // and check the counters reconcile once quiet.  Run under TSan this
  // pins the locking contract (mutex for the tables, relaxed atomics for
  // the counters, shared_ptr refcounts for the balls).
  BallStore store({.max_ball_nodes = 1 << 12, .max_entries = 3});
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<std::uint64_t> observed_misses{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, &observed_hits, &observed_misses, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t fp = static_cast<std::uint64_t>(round % 5 + 1);
        if ((round + t) % 3 == 0) {
          std::vector<BallPtr> balls;
          for (int i = 0; i < 4; ++i) {
            auto b = std::make_shared<CachedNodeView>();
            b->host = {t, round, i};
            balls.push_back(std::move(b));
          }
          (void)store.publish(fp, 1, std::move(balls), 4);
        } else {
          std::vector<BallPtr> out;
          if (store.lookup(fp, 1, &out)) {
            observed_hits.fetch_add(1, std::memory_order_relaxed);
            // Mutate through our own slot: COW must keep the store's copy
            // (and other threads' adopted copies) untouched.
            CachedNodeView& mine = exclusive_ball(out[0]);
            mine.host.push_back(-1);
          } else {
            observed_misses.fetch_add(1, std::memory_order_relaxed);
          }
          (void)store.lookup_ball(fp, 1, round % 6);
          (void)store.stats();  // lock-free read while others write
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const BallStoreStats stats = store.stats();
  // Every full-lookup outcome the threads observed is tallied; lookup_ball
  // adds more, so the totals are lower bounds.
  EXPECT_GE(stats.hits + stats.misses,
            observed_hits.load() + observed_misses.load());
  EXPECT_GT(stats.publishes, 0u);
  EXPECT_LE(store.entry_count(), 3u);
  EXPECT_LE(store.ball_nodes(), std::size_t{1} << 12);
  // The store's resident balls were never grown by the COW mutations.
  std::vector<BallPtr> out;
  for (std::uint64_t fp = 1; fp <= 5; ++fp) {
    if (!store.lookup(fp, 1, &out)) continue;
    for (const BallPtr& b : out) {
      EXPECT_EQ(b->host.size(), 3u);
    }
  }
}

TEST(BallStore, WarmSweepWarmsNextEngine) {
  const Graph g = gen::random_connected(30, 0.15, 17);
  const Proof p = sized_proof(30, 1);
  auto store = std::make_shared<BallStore>();
  const RunResult want = sweep_sequential(g, p, parity_verifier());

  IncrementalEngine a({.store = store});
  expect_equal(want, a.run(g, p, parity_verifier()), "producer");
  EXPECT_EQ(store->stats().publishes, 1u);

  IncrementalEngine b({.store = store});
  expect_equal(want, b.run(g, p, parity_verifier()), "adopter");
  EXPECT_GE(store->stats().hits, 1u);

  // A's later proof refresh must stay invisible to B and to the store.
  Proof p2 = p;
  p2.labels[0].append_bit(true);
  const RunResult want2 = sweep_sequential(g, p2, parity_verifier());
  expect_equal(want2, a.run(g, p2, parity_verifier()), "producer mutated");
  expect_equal(want, b.run(g, p, parity_verifier()), "adopter unaffected");

  IncrementalEngine c({.store = store});
  expect_equal(want2, c.run(g, p2, parity_verifier()),
               "late adopter under new proof");
}

TEST(BallStore, PublishedSweepFeedsIncrementalEngine) {
  Graph g = gen::random_connected(40, 0.1, 23);
  Proof p = sized_proof(40, 2);
  auto store = std::make_shared<BallStore>();
  const RunResult want = sweep_sequential(g, p, parity_verifier());

  // A warm sweep publishes into the store...
  IncrementalEngine producer({.store = store});
  expect_equal(want, producer.run(g, p, parity_verifier()), "producer");
  EXPECT_EQ(store->entry_count(), 1u);

  // ...and a tracked incremental engine's first full sweep adopts it
  // instead of extracting.
  DeltaTracker tracker(g, p, 1);
  IncrementalEngine inc({.store = store});
  ASSERT_TRUE(inc.attach_tracker(&tracker));
  expect_equal(want, inc.run(g, p, parity_verifier()), "adopting sweep");
  EXPECT_EQ(inc.stats().store_adoptions, 1u);
  EXPECT_EQ(inc.stats().full_sweeps, 1u);

  // Incremental mutations then patch COW copies; the store's snapshot (and
  // engines still reading it) keep the pristine state.
  MutationBatch batch;
  batch.set_proof_label(0, p.labels[5]);
  batch.remove_edge(g.edge_u(0), g.edge_v(0));
  tracker.apply(batch);
  expect_equal(sweep_sequential(g, p, parity_verifier()),
               inc.run(g, p, parity_verifier()), "after mutation");
  inc.attach_tracker(nullptr);
}

TEST(BallStore, InterleavedEnginesNeverSeeStaleOrInFlightState) {
  // The staleness regression: two engines interleave on one store while
  // the graph mutates under a tracker with lazy fingerprint upkeep, then
  // the mutation is reverted so the original fingerprint recurs.  At every
  // step each engine must match a stateless fresh sweep — stale balls must
  // not be served for a changed graph, pristine snapshots must survive the
  // other engine's in-flight patches, and the reverted graph may (and
  // should) be served the original snapshot.
  Graph g = gen::random_connected(26, 0.12, 31);
  Proof p = sized_proof(26, 1);
  const Graph g0 = g;   // pristine copies
  const Proof p0 = p;
  const std::uint64_t fp0 = graph_fingerprint(g0);

  auto store = std::make_shared<BallStore>();

  DeltaTracker tracker(g, p, 1);
  IncrementalEngine inc({.store = store});
  ASSERT_TRUE(inc.attach_tracker(&tracker));
  const RunResult want0 = sweep_sequential(g0, p0, parity_verifier());
  expect_equal(want0, inc.run(g, p, parity_verifier()), "initial");
  EXPECT_EQ(store->entry_count(), 1u);

  // Structural mutation through the tracker: the engine patches in place
  // (its graph fingerprint goes lazily stale) and publishes nothing.
  // Removing the LAST edge keeps the edge-list order restorable, so the
  // later revert reproduces fp0 exactly (graph_fingerprint hashes edges in
  // index order and remove_edge swap-removes).
  const int last = g.m() - 1;
  const int u = g.edge_u(last);
  const int v = g.edge_v(last);
  const std::uint64_t cut_label = g.edge_label(last);
  const std::int64_t cut_weight = g.edge_weight(last);
  MutationBatch cut;
  cut.remove_edge(u, v);
  tracker.apply(cut);
  expect_equal(sweep_sequential(g, p, parity_verifier()),
               inc.run(g, p, parity_verifier()), "mutated");

  // A second engine on the same store, running the PRISTINE graph, must be
  // served the pristine snapshot (store hit) and produce pristine results
  // — the incremental engine's patches were COW-isolated.
  IncrementalEngine other({.store = store});
  const auto hits_before = store->stats().hits;
  expect_equal(want0, other.run(g0, p0, parity_verifier()),
               "pristine adopter during divergence");
  EXPECT_GT(store->stats().hits, hits_before);

  // A third engine on the MUTATED graph must miss (different fingerprint)
  // and extract fresh — never adopt fp0's balls.
  IncrementalEngine third({.store = store});
  expect_equal(sweep_sequential(g, p, parity_verifier()),
               third.run(g, p, parity_verifier()), "mutated adopter");

  // Revert: the fingerprint returns to fp0, and serving the original
  // snapshot is again correct.
  MutationBatch mend;
  mend.add_edge(u, v, cut_label, cut_weight);
  tracker.apply(mend);
  ASSERT_EQ(graph_fingerprint(g), fp0);
  expect_equal(want0, inc.run(g, p, parity_verifier()), "reverted");
  IncrementalEngine fourth({.store = store});
  expect_equal(sweep_sequential(g, p, parity_verifier()),
               fourth.run(g, p, parity_verifier()), "reverted adopter");
  inc.attach_tracker(nullptr);
}

}  // namespace
}  // namespace lcp