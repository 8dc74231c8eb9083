// Randomized spot-check verification under an explicit error budget.
//
// Every other engine is exact: each dirty ball is re-verified every batch,
// so per-batch cost is linear in |dirty| and a heavy-traffic session pays
// for adversarial churn in full.  SpotCheckEngine is the production-
// monitoring tier on top of them: it wraps an exact inner engine, keeps a
// pool of *outstanding* dirty balls (dirtied since their last exact
// verification), and per batch verifies only a sampled subset
//
//     k = max(1, ceil(budget * |pool|))
//
// chosen by importance-weighted sampling without replacement.  Sampled
// balls leave the pool; skipped balls stay in it, so a tamper that slips
// past one batch remains a candidate every batch after.  On a uniformly
// weighted pool the per-batch detection probability of any single
// adversarial ball is exactly k/|pool| >= budget, so detection latency is
// geometric; importance boosts re-aim the budget at risky balls, which
// can push an unboosted ball's per-batch probability below that floor —
// the per-entry accounting below covers exactly that.
//
// The asymmetric soundness contract (the whole point):
//
//   * A reported REJECT is never statistical.  Any sampled rejection — or
//     an operator-triggered audit (request_audit()) — escalates to a full
//     dirty sweep on the wrapped inner engine, and the escalated result is
//     what the caller sees.  While the last exact verdict rejects, every
//     run stays exact until the state heals.
//   * A reported ACCEPT may be a false negative.  The engine accounts for
//     it explicitly: per pool entry it maintains an upper bound on the
//     probability that the entry was never re-verified since it was
//     dirtied, multiplying per survived run by a provable bound on that
//     run's exclusion probability — exactly 1 - k/|pool| when the pool is
//     uniformly weighted, else (1 - w_i/W)^k (the k largest Efraimidis–
//     Spirakis keys are distributed as k successive weighted draws
//     without replacement, each picking a still-unsampled entry with
//     conditional probability at least w_i/W), with maximum-weight
//     entries further capped at 1 - k/|pool|.  Stats::miss_bound
//     surfaces the worst outstanding bound and drops to 0 whenever an
//     exact run settles the pool.
//
// Importance weighting biases the sample toward balls that history says
// are risky: centres dirtied structurally (re-extracted rather than
// patched — their frontier moved), centres touched by certificate repairs
// (note_repair, fed by the session's maintainer pipeline), and centres
// that were rejecting at the last verdict flip.  Weights shift *where*
// the budget is spent, never the accounting above.
//
// Sampling is reproducible: a seeded splitmix64 stream drives
// Efraimidis–Spirakis weighted reservoir keys over the pool in ascending
// centre order, so equal seeds give byte-equal sample sequences regardless
// of the inner backend (tests/test_spot_check_determinism.cpp).
//
// budget == 0 disables sampling entirely: every run delegates to the
// inner engine untouched, bit-identically (tests/test_spot_check.cpp).
#ifndef LCP_CORE_SPOT_CHECK_HPP_
#define LCP_CORE_SPOT_CHECK_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/view.hpp"

namespace lcp {

struct DirtyRecord;

struct SpotCheckOptions {
  /// Fraction of the outstanding dirty pool verified per batch:
  /// k = max(1, ceil(budget * |pool|)).  On a uniformly weighted pool
  /// this is the per-batch detection probability floor for a single
  /// adversarial ball; importance boosts shift that probability toward
  /// boosted balls (the per-entry miss accounting stays sound either
  /// way).  0 disables sampling (exact delegation); 1 verifies the whole
  /// pool every batch.  Must lie in [0, 1].
  double budget = 0.05;
  /// splitmix64 seed for the sampling stream.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Weight multiplier for centres dirtied structurally (their ball
  /// frontier moved — the change a patch cannot represent).
  double reextract_weight = 2.0;
  /// Weight multiplier for centres touched by a certificate repair
  /// (note_repair; the session feeds it from the maintainer pipeline).
  double repair_weight = 1.5;
  /// Weight multiplier for centres that were rejecting at the most recent
  /// escalated (exact) run — the neighbourhood a verdict flip implicates.
  double flip_weight = 4.0;
};

/// A parsed "spotcheck[:BUDGET[:inner]]" spec: the options plus the
/// make_engine spelling of the inner exact backend.
struct SpotCheckSpec {
  SpotCheckOptions options;
  std::string inner = "incremental";
};

/// Parses "spotcheck", "spotcheck:0.01", "spotcheck:0.01:direct",
/// "spotcheck:0.01:parallel", ...  The inner spec is everything after the
/// second colon; it must name an exact backend (nesting spot-check inside
/// spot-check is rejected).
/// Throws std::invalid_argument on malformed specs or budgets outside
/// [0, 1].
SpotCheckSpec parse_spotcheck_spec(std::string_view name);

/// Deterministic splitmix64 stream (public so tests can predict samples).
struct SplitMix64 {
  std::uint64_t state = 0;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in (0, 1] (never 0: safe as a reservoir-key base).
  double next_unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

class SpotCheckEngine final : public ExecutionEngine {
 public:
  /// Wraps the inner exact engine; throws std::invalid_argument when
  /// inner is null or the budget is outside [0, 1].
  explicit SpotCheckEngine(std::unique_ptr<ExecutionEngine> inner,
                           SpotCheckOptions options = {});
  ~SpotCheckEngine() override;

  std::string name() const override { return "spotcheck"; }

  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Consumes the tracker's dirty log itself (the sampling pool is built
  /// from it) and forwards the attachment to the inner engine, whose own
  /// consumption keeps escalated runs incremental.  Returns true.
  bool attach_tracker(DeltaTracker* tracker) override;
  DeltaTracker* attached_tracker() const override { return tracker_; }

  /// Registers "engine.spotcheck.*" derived gauges (sampled/skipped
  /// counters, escalations, pool size, miss bound) and forwards the sink
  /// to the inner engine.
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Emits spot_sample / spot_escalate events while attached; forwarded
  /// to the inner engine as well.
  void attach_journal(obs::Journal* journal) override;
  obs::Journal* attached_journal() const override { return journal_; }

  /// Forces the next run to escalate to the inner engine regardless of
  /// sampling — the operator-triggered audit path.  One-shot.
  void request_audit() { audit_requested_ = true; }

  /// Importance hint: centres in `touched` (dense indices) sitting in
  /// the pool — or newly dirtied into it — at the next sampled run carry
  /// the repair weight boost.  One-shot: consumed by that run's record
  /// absorption.  The session calls this with every repair batch's
  /// touched nodes.
  void note_repair(const std::vector<int>& touched);

  /// The centres verified by the most recent sampled run, ascending
  /// (empty after exact/unchanged runs).  For determinism tests.
  const std::vector<int>& last_sample() const { return last_sample_; }

  /// The wrapped exact engine.
  ExecutionEngine& inner() { return *inner_; }
  const ExecutionEngine& inner() const { return *inner_; }

  double budget() const { return options_.budget; }

  struct Stats {
    std::uint64_t exact_runs = 0;     ///< full delegations (budget 0, cold
                                      ///< start, rejecting state, fallback)
    std::uint64_t sampled_runs = 0;   ///< runs that verified a sample
    std::uint64_t unchanged_runs = 0; ///< no new dirt, empty pool
    std::uint64_t balls_sampled = 0;  ///< spot-verified balls (cumulative)
    std::uint64_t balls_skipped = 0;  ///< pool entries left unverified,
                                      ///< summed over sampled runs
    std::uint64_t escalations = 0;    ///< sampled rejection / audit sweeps
    std::uint64_t audits = 0;         ///< request_audit() honoured
    std::size_t pool_size = 0;        ///< outstanding unverified balls now
    /// Worst-case probability that some outstanding pool entry was never
    /// re-verified since it was dirtied; 0 when the pool is empty.
    double miss_bound = 0.0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PoolEntry {
    int center = 0;
    double weight = 1.0;
    double miss = 1.0;  // P(never sampled since dirtied), upper bound
  };

  /// Full delegation to the inner engine: adopts its verdict as the new
  /// exact baseline and settles the pool.
  RunResult exact_run(const Graph& g, const Proof& p, const LocalVerifier& a);
  /// Folds the tracker records into the pool (expanding label/proof
  /// epicentres to radius-r balls on the current graph; structural dirt
  /// arrives pre-expanded).
  void absorb_records(const Graph& g, int radius,
                      const std::vector<const DirtyRecord*>& records);
  void refresh_stats_bounds();

  std::unique_ptr<ExecutionEngine> inner_;
  SpotCheckOptions options_;
  DeltaTracker* tracker_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  ViewExtractor extractor_;
  SplitMix64 rng_;

  // Exact-verdict baseline: valid while the binding below matches.
  bool baseline_valid_ = false;
  const Graph* baseline_graph_ = nullptr;
  const LocalVerifier* baseline_verifier_ = nullptr;
  bool baseline_all_accept_ = true;
  std::vector<int> baseline_rejecting_;
  std::uint64_t consumed_generation_ = 0;

  // The outstanding pool, ascending by centre.
  std::vector<PoolEntry> pool_;
  bool audit_requested_ = false;
  std::vector<int> last_sample_;

  // Epoch-marked scratch (no O(n) clears between runs).
  std::vector<std::uint64_t> mark_;
  std::uint64_t mark_epoch_ = 0;
  std::vector<std::size_t> fresh_slot_;  // valid where mark_ == mark_epoch_
  std::vector<int> bfs_queue_;
  std::vector<int> bfs_depth_;
  std::vector<std::uint64_t> bfs_mark_;
  std::uint64_t bfs_epoch_ = 0;
  // Repair-touched centres awaiting their boost (consumed at next run).
  std::vector<std::uint64_t> repair_mark_;
  std::uint64_t repair_epoch_ = 0;
  // Centres rejecting at the last verdict flip (boost while set).
  std::vector<std::uint64_t> flip_mark_;
  std::uint64_t flip_epoch_ = 0;

  // Sampling scratch.
  std::vector<double> keys_;
  std::vector<int> order_;

  Stats stats_;
};

}  // namespace lcp

#endif  // LCP_CORE_SPOT_CHECK_HPP_
