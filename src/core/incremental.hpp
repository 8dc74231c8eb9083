// The dirty-ball re-verification engine.
//
// A(G, P, v) depends only on v's radius-r ball, so after a small delta to
// (G, P) only the centres whose balls intersect the change can flip their
// verdict.  IncrementalEngine exploits this: it caches every node's view
// AND verdict, maintains an inverted ball index (node u -> centres whose
// ball contains u; for undirected graphs that set equals ball(u, r)), and
// on each run re-verifies only the dirty centres.
//
// Two ways a run can go incremental:
//
//   1. Tracker path.  A DeltaTracker (core/delta.hpp) is attached and the
//      run's (graph, proof) are the tracker's bound pair: the tracker's
//      dirty log names the epicentres exactly.  With view patching on (the
//      default), the log's per-op ViewDeltas are replayed against the
//      cached balls through View::apply_delta: most structural and label
//      changes patch the affected views in place, bit-identically to
//      re-extraction, and only centres whose frontier genuinely moves
//      (membership, a distance, or BFS order changes) are re-extracted.
//      Proof epicentres expand through the inverted index and only refresh
//      proof labels; node additions grow the per-node caches in place.  A
//      state-fingerprint comparison (O(n + m + proof bits), skippable via
//      options) detects out-of-band mutations and falls back to a full
//      sweep, so results stay identical to sweep_sequential's even when
//      the delta contract is violated.
//
//   2. Content path.  No tracker (or a foreign graph): the engine compares
//      the graph fingerprint with its cached one and, when the graph is
//      unchanged, diffs the proof against a retained copy — an exact,
//      hash-free diff — and re-verifies only centres seeing a changed
//      label.  This makes plain proof-mutation loops (exhaustive proof
//      search) incremental with no caller cooperation at all.
//
// Cached balls are refcounted (core/ball_store.hpp).  When a shared
// BallStore is attached, full sweeps adopt a warm sweep published by
// another engine (skipping extraction entirely) and publish their own;
// every mutation goes through the copy-on-write helpers, so the store's
// snapshot — and any other engine holding it — never observes this
// engine's in-flight patches.  Large dirty sets can be re-verified across
// a persistent worker pool (`shard_threads`), with results bit-identical
// to the serial path.
//
// Anything else — first run, radius change, structural change without a
// tracker, cache overflow — is a full sweep that rebuilds the cache.  The
// equivalence corpus in tests/test_engines.cpp and the mutation fuzz test
// in tests/test_incremental_fuzz.cpp pin bit-identical RunResults against
// sweep_sequential on every path (the fuzz covers the full patching x
// sharding matrix).
#ifndef LCP_CORE_INCREMENTAL_HPP_
#define LCP_CORE_INCREMENTAL_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ball_store.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/worker_pool.hpp"

namespace lcp {

struct IncrementalEngineOptions {
  /// Abandon caching when the summed ball sizes exceed this bound.
  std::size_t max_cached_ball_nodes = std::size_t{1} << 22;
  /// Verify the tracker's state fingerprint against a full recompute on
  /// every tracker-path run.  Costs O(n + m + proof bits); turning it off
  /// shifts responsibility for the "all mutations go through the tracker"
  /// contract entirely to the caller.
  bool verify_state = true;
  /// Patch cached balls in place through View::apply_delta, re-extracting
  /// only centres whose ball frontier moves.  Off restores the PR 3
  /// behaviour (re-extract every structurally dirty centre); results are
  /// bit-identical either way.
  bool patch_views = true;
  /// Worker threads for dirty-set re-verification; <= 1 keeps it serial.
  /// The pool is created lazily on the first sharded round.
  int shard_threads = 0;
  /// Only shard rounds with at least this many dirty centres (a pool
  /// dispatch plus per-worker extractor binds cost O(n); tiny dirty sets
  /// are faster serial).
  std::size_t shard_min_centers = 128;
  /// Optional shared ball store: full sweeps adopt warm balls published by
  /// other engines and publish their own (see core/ball_store.hpp).
  std::shared_ptr<BallStore> store = nullptr;
};

class IncrementalEngine final : public ExecutionEngine {
 public:
  explicit IncrementalEngine(IncrementalEngineOptions options = {})
      : options_(std::move(options)) {}
  ~IncrementalEngine() override;

  std::string name() const override { return "incremental"; }

  /// Registers "engine.incremental.*" (the Stats counters plus cache
  /// residency), "store.ball.*" when a shared store is attached, and
  /// "pool.incremental.*" lane gauges once the sharding pool exists.
  /// Phase spans ("incremental.dirty_scan", "incremental.reextract",
  /// "incremental.verify", "incremental.full_sweep") are emitted into the
  /// sink's TraceRecorder while attached.
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Subsequent runs whose (graph, proof) match the tracker's bound pair
  /// consume its dirty log.  Passing nullptr detaches.  Attaching always
  /// invalidates the cache (the tracker's generation counter becomes the
  /// engine's clock).  Returns true: this engine consumes trackers.
  bool attach_tracker(DeltaTracker* tracker) override;
  DeltaTracker* attached_tracker() const override { return tracker_; }

  /// Emits patch-fallback, cache-overflow, and lane-dispatch events while
  /// attached.
  void attach_journal(obs::Journal* journal) override { journal_ = journal; }
  obs::Journal* attached_journal() const override { return journal_; }

  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Runtime toggles (tests flip these between runs to cross-check the
  /// patching x sharding matrix); they affect subsequent runs only.
  void set_patch_views(bool on) { options_.patch_views = on; }
  void set_shard_threads(int threads) { options_.shard_threads = threads; }

  struct Stats {
    std::uint64_t full_sweeps = 0;       ///< complete rebuilds (or uncached)
    std::uint64_t incremental_runs = 0;  ///< delta-driven runs
    std::uint64_t unchanged_runs = 0;    ///< state identical: cached verdicts
    std::uint64_t nodes_reverified = 0;  ///< accept() calls on delta paths
    std::uint64_t fallbacks = 0;         ///< fingerprint/log forced resweeps
    std::uint64_t views_patched = 0;     ///< balls updated via apply_delta
    std::uint64_t patch_fallbacks = 0;   ///< deltas that forced re-extraction
    std::uint64_t reextractions = 0;     ///< centres re-extracted on deltas
    std::uint64_t store_adoptions = 0;   ///< full sweeps served by the store
    std::uint64_t sharded_rounds = 0;    ///< reverify rounds on the pool
  };
  const Stats& stats() const { return stats_; }

  /// The dirty centres re-verified by the most recent run, in guaranteed
  /// ascending dense-index order — a *stable* iteration surface for
  /// consumers that sample or replay the dirty set (core/spot_check.hpp),
  /// independent of any hash-map iteration order and identical across the
  /// patching x sharding matrix.  Empty after full sweeps, unchanged runs,
  /// and fallbacks (where "the dirty set" is the whole graph or nothing).
  const std::vector<int>& last_dirty_centers() const {
    return last_dirty_centers_;
  }

 private:
  RunResult full_sweep(const Graph& g, const Proof& p,
                       const LocalVerifier& a, std::uint64_t graph_fp);
  RunResult run_tracker_path(const Graph& g, const Proof& p,
                             const LocalVerifier& a);
  RunResult run_content_path(const Graph& g, const Proof& p,
                             const LocalVerifier& a);
  /// Re-extracts the views of `reextract_centers` (repairing the inverted
  /// index), refreshes proofs of `proof_dirty`, and re-verifies them
  /// together with `patched_centers` (balls already updated in place by
  /// the caller).  All three lists must be deduplicated and disjoint.
  /// Re-extraction and verdict evaluation are sharded across the worker
  /// pool when the round is large enough and sharding is enabled.
  void reverify(const Graph& g, const Proof& p, const LocalVerifier& a,
                const std::vector<int>& reextract_centers,
                const std::vector<int>& patched_centers,
                const std::vector<int>& proof_dirty);
  /// Copies into the slot's ball the labels of members flagged in
  /// proof_changed_ that differ from p (COW: a shared ball is cloned first).
  void refresh_changed_proofs(BallPtr& slot, const Proof& p) const;
  void rebuild_inverted_index();
  RunResult result_from_verdicts() const;
  void invalidate();

  IncrementalEngineOptions options_;
  DeltaTracker* tracker_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  ViewExtractor extractor_;
  std::unique_ptr<WorkerPool> pool_;

  bool cache_valid_ = false;
  // Cached verdicts are only valid for the verifier they were computed
  // with: identity (address) is the key, so a different verifier object —
  // even one of equal radius — forces a rebuild.
  const LocalVerifier* cached_verifier_ = nullptr;
  bool overflowed_ = false;  // cache abandoned for the current binding
  // True when the cache mirrors the tracker's bound pair; a content-path
  // run on a foreign (graph, proof) rebuilds the cache for that pair and
  // clears this, forcing the next tracker-path run to resweep instead of
  // trusting verdicts that belong to another graph.
  bool cache_from_tracker_ = false;
  int cached_radius_ = -1;
  std::uint64_t cached_graph_fp_ = 0;
  // Tracker-path structural deltas invalidate the cached graph fingerprint
  // lazily instead of recomputing O(n + m) per run; a later content-path
  // run that needs it resweeps, and nothing is ever published to (or
  // fetched from) a shared store under a stale fingerprint — store keys
  // are always freshly computed (tests/test_ball_store.cpp pins the
  // interleaving).
  bool cached_graph_fp_valid_ = false;
  std::uint64_t consumed_generation_ = 0;
  std::vector<BallPtr> cache_;
  std::vector<std::vector<int>> inverted_;  // node -> containing centres
  std::vector<std::uint8_t> verdicts_;
  std::vector<BitString> last_proofs_;  // exact copy for the content diff
  // Nodes whose proof label changed in the round being verified, so that
  // reverify compares only those members of a dirty ball rather than every
  // member's label.  Cleared when the round commits; a flag left behind by
  // a throwing verifier only costs a comparison.
  std::vector<std::uint8_t> proof_changed_;
  std::size_t cached_ball_nodes_ = 0;

  // The most recent delta run's sorted dirty set (see last_dirty_centers).
  std::vector<int> last_dirty_centers_;

  // Scratch.
  std::vector<int> dirty_scratch_;
  std::vector<std::uint8_t> dirty_mark_;
  // Per-centre visit epoch for delta replay (64-bit: never recycled).
  std::vector<std::uint64_t> op_epoch_;
  std::uint64_t op_epoch_counter_ = 0;
  std::vector<int> batch_centers_;
  std::vector<const View*> batch_views_;
  std::vector<std::uint8_t> batch_out_;

  Stats stats_;
};

}  // namespace lcp

#endif  // LCP_CORE_INCREMENTAL_HPP_
