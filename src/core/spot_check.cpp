#include "core/spot_check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/delta.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

SpotCheckSpec parse_spotcheck_spec(std::string_view name) {
  // Grammar: "spotcheck", "spotcheck:BUDGET", "spotcheck:BUDGET:INNER"
  // where INNER is any make_engine spelling of an exact backend.
  SpotCheckSpec spec;
  if (name == "spotcheck") return spec;
  constexpr std::string_view prefix = "spotcheck:";
  if (name.substr(0, prefix.size()) != prefix) {
    throw std::invalid_argument("not a spotcheck engine spec: " +
                                std::string(name));
  }
  std::string_view rest = name.substr(prefix.size());
  const std::size_t colon = rest.find(':');
  const std::string budget_text(
      colon == std::string_view::npos ? rest : rest.substr(0, colon));
  if (budget_text.empty()) {
    throw std::invalid_argument("bad spot-check budget in: " +
                                std::string(name));
  }
  char* end = nullptr;
  const double budget = std::strtod(budget_text.c_str(), &end);
  if (end == budget_text.c_str() || *end != '\0' || !(budget >= 0.0) ||
      budget > 1.0) {
    throw std::invalid_argument("spot-check budget must be in [0, 1]: " +
                                std::string(name));
  }
  spec.options.budget = budget;
  if (colon != std::string_view::npos) {
    std::string_view inner = rest.substr(colon + 1);
    if (inner.empty()) {
      throw std::invalid_argument("empty inner engine in: " +
                                  std::string(name));
    }
    if (inner == "spotcheck" || inner.rfind("spotcheck:", 0) == 0) {
      throw std::invalid_argument(
          "spot-check cannot wrap another spot-check: " + std::string(name));
    }
    spec.inner = std::string(inner);
  }
  return spec;
}

SpotCheckEngine::SpotCheckEngine(std::unique_ptr<ExecutionEngine> inner,
                                 SpotCheckOptions options)
    : inner_(std::move(inner)), options_(options) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("SpotCheckEngine: null inner engine");
  }
  if (!(options_.budget >= 0.0) || options_.budget > 1.0) {
    throw std::invalid_argument(
        "SpotCheckEngine: budget must be in [0, 1]");
  }
  rng_.state = options_.seed;
}

SpotCheckEngine::~SpotCheckEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

bool SpotCheckEngine::attach_tracker(DeltaTracker* tracker) {
  tracker_ = tracker;
  inner_->attach_tracker(tracker);
  // New clock, new pool: outstanding entries describe the old log.
  pool_.clear();
  baseline_valid_ = false;
  consumed_generation_ = tracker != nullptr ? tracker->generation() : 0;
  refresh_stats_bounds();
  return true;
}

void SpotCheckEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  inner_->attach_telemetry(telemetry);
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  const auto stat = [this](std::uint64_t Stats::*field) {
    return [this, field] { return static_cast<double>(stats_.*field); };
  };
  registry.derived("engine.spotcheck.exact_runs", stat(&Stats::exact_runs),
                   this);
  registry.derived("engine.spotcheck.sampled_runs",
                   stat(&Stats::sampled_runs), this);
  registry.derived("engine.spotcheck.balls_sampled",
                   stat(&Stats::balls_sampled), this);
  registry.derived("engine.spotcheck.balls_skipped",
                   stat(&Stats::balls_skipped), this);
  registry.derived("engine.spotcheck.escalations",
                   stat(&Stats::escalations), this);
  registry.derived("engine.spotcheck.audits", stat(&Stats::audits), this);
  registry.derived(
      "engine.spotcheck.pool_size",
      [this] { return static_cast<double>(stats_.pool_size); }, this);
  registry.derived(
      "engine.spotcheck.miss_bound", [this] { return stats_.miss_bound; },
      this);
  registry.derived(
      "engine.spotcheck.budget", [this] { return options_.budget; }, this);
}

void SpotCheckEngine::attach_journal(obs::Journal* journal) {
  journal_ = journal;
  inner_->attach_journal(journal);
}

void SpotCheckEngine::note_repair(const std::vector<int>& touched) {
  if (touched.empty()) return;
  if (repair_epoch_ == 0) ++repair_epoch_;
  std::size_t need = 0;
  for (int v : touched) {
    if (v >= 0) need = std::max(need, static_cast<std::size_t>(v) + 1);
  }
  if (repair_mark_.size() < need) repair_mark_.resize(need, 0);
  for (int v : touched) {
    if (v >= 0) repair_mark_[static_cast<std::size_t>(v)] = repair_epoch_;
  }
}

void SpotCheckEngine::refresh_stats_bounds() {
  stats_.pool_size = pool_.size();
  double worst = 0.0;
  for (const PoolEntry& e : pool_) worst = std::max(worst, e.miss);
  stats_.miss_bound = worst;
}

RunResult SpotCheckEngine::exact_run(const Graph& g, const Proof& p,
                                     const LocalVerifier& a) {
  ++stats_.exact_runs;
  RunResult result = inner_->run(g, p, a);
  baseline_valid_ = true;
  baseline_graph_ = &g;
  baseline_verifier_ = &a;
  baseline_all_accept_ = result.all_accept;
  baseline_rejecting_ = result.rejecting;
  // Everything outstanding has just been verified exactly.
  pool_.clear();
  last_sample_.clear();
  if (tracker_ != nullptr) consumed_generation_ = tracker_->generation();
  if (!result.all_accept) {
    // Remember the implicated neighbourhood: when these centres re-enter
    // the pool after the state heals, they sample with the flip boost.
    ++flip_epoch_;
    if (flip_mark_.size() < static_cast<std::size_t>(g.n())) {
      flip_mark_.resize(static_cast<std::size_t>(g.n()), 0);
    }
    for (int c : result.rejecting) {
      flip_mark_[static_cast<std::size_t>(c)] = flip_epoch_;
    }
  }
  refresh_stats_bounds();
  return result;
}

void SpotCheckEngine::absorb_records(
    const Graph& g, int radius,
    const std::vector<const DirtyRecord*>& records) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  if (mark_.size() < n) mark_.resize(n, 0);
  if (fresh_slot_.size() < n) fresh_slot_.resize(n, 0);
  ++mark_epoch_;

  // Newly dirty centres this absorption, with their base weights.  A
  // centre can arrive through several channels; the strongest weight wins.
  std::vector<PoolEntry> fresh;
  auto touch = [&](int c, double weight) {
    const std::size_t ci = static_cast<std::size_t>(c);
    if (mark_[ci] == mark_epoch_) {
      PoolEntry& e = fresh[fresh_slot_[ci]];
      e.weight = std::max(e.weight, weight);
      return;
    }
    mark_[ci] = mark_epoch_;
    fresh_slot_[ci] = fresh.size();
    fresh.push_back(PoolEntry{c, weight, 1.0});
  };

  // Label/proof epicentres affect exactly the centres whose current ball
  // contains them; for undirected graphs that set is ball(u, radius) on
  // the current graph.  Structural dirt arrives pre-expanded by the
  // tracker's stepwise BFS (covering pre- and post-states).
  if (bfs_depth_.size() < n) bfs_depth_.resize(n, 0);
  if (bfs_mark_.size() < n) bfs_mark_.resize(n, 0);
  auto expand = [&](int u, double weight) {
    ++bfs_epoch_;
    bfs_queue_.clear();
    bfs_queue_.push_back(u);
    bfs_depth_[static_cast<std::size_t>(u)] = 0;
    bfs_mark_[static_cast<std::size_t>(u)] = bfs_epoch_;
    touch(u, weight);
    for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
      const int v = bfs_queue_[head];
      const int d = bfs_depth_[static_cast<std::size_t>(v)];
      if (d >= radius) continue;
      for (const HalfEdge& h : g.neighbors(v)) {
        if (bfs_mark_[static_cast<std::size_t>(h.to)] == bfs_epoch_) {
          continue;
        }
        bfs_mark_[static_cast<std::size_t>(h.to)] = bfs_epoch_;
        bfs_queue_.push_back(h.to);
        bfs_depth_[static_cast<std::size_t>(h.to)] = d + 1;
        touch(h.to, weight);
      }
    }
  };

  for (const DirtyRecord* record : records) {
    for (int c : record->structural_dirty) {
      if (c >= 0 && static_cast<std::size_t>(c) < n) {
        touch(c, options_.reextract_weight);
      }
    }
    for (int u : record->proof_nodes) {
      if (u >= 0 && static_cast<std::size_t>(u) < n) expand(u, 1.0);
    }
    for (int u : record->relabeled_nodes) {
      if (u >= 0 && static_cast<std::size_t>(u) < n) expand(u, 1.0);
    }
  }
  // History boosts.  The repair boost covers centres already sitting in
  // the pool as well as centres entering it now — note_repair's contract
  // — and is one-shot: the set described the repairs since the last run,
  // so consuming it here retires it even when no fresh dirt arrived.
  if (repair_epoch_ != 0) {
    const auto repair_boost = [&](PoolEntry& e) {
      const std::size_t c = static_cast<std::size_t>(e.center);
      if (c < repair_mark_.size() && repair_mark_[c] == repair_epoch_) {
        e.weight *= options_.repair_weight;
      }
    };
    for (PoolEntry& e : pool_) repair_boost(e);
    for (PoolEntry& e : fresh) repair_boost(e);
    ++repair_epoch_;
  }
  if (fresh.empty()) return;

  for (PoolEntry& e : fresh) {
    const std::size_t c = static_cast<std::size_t>(e.center);
    if (flip_epoch_ != 0 && c < flip_mark_.size() &&
        flip_mark_[c] == flip_epoch_) {
      e.weight *= options_.flip_weight;
    }
  }

  std::sort(fresh.begin(), fresh.end(),
            [](const PoolEntry& x, const PoolEntry& y) {
              return x.center < y.center;
            });

  // Merge into the (sorted) pool.  A re-dirtied centre keeps one entry:
  // strongest weight, miss reset to 1 — it is dirty again *now*, and the
  // bound must cover a tamper planted by the newest batch.
  std::vector<PoolEntry> merged;
  merged.reserve(pool_.size() + fresh.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < pool_.size() && j < fresh.size()) {
    if (pool_[i].center < fresh[j].center) {
      merged.push_back(pool_[i++]);
    } else if (fresh[j].center < pool_[i].center) {
      merged.push_back(fresh[j++]);
    } else {
      PoolEntry e = fresh[j++];
      e.weight = std::max(e.weight, pool_[i].weight);
      ++i;
      merged.push_back(e);
    }
  }
  while (i < pool_.size()) merged.push_back(pool_[i++]);
  while (j < fresh.size()) merged.push_back(fresh[j++]);
  pool_ = std::move(merged);
}

RunResult SpotCheckEngine::run(const Graph& g, const Proof& p,
                               const LocalVerifier& a) {
  // Exact paths first: no sampling without a budget, a tracker bound to
  // this exact pair, a radius the tracker can serve, and an accepting
  // exact baseline to be incremental against.
  if (options_.budget <= 0.0) {
    // Degenerate tier: a pure pass-through, bit-identical to the inner
    // engine (no baseline bookkeeping beyond the exact counters).
    ++stats_.exact_runs;
    return inner_->run(g, p, a);
  }
  const bool audit = audit_requested_;
  audit_requested_ = false;
  // An operator audit is honoured by whichever exact path this run takes
  // — the dedicated branch below or a cold-start / tracker-mismatch /
  // stale-baseline fallback — and the accounting (Stats::audits,
  // escalations, the journal event) must not depend on which one.
  const auto honour_audit = [&] {
    if (!audit) return;
    ++stats_.audits;
    ++stats_.escalations;
    obs::maybe_emit(
        journal_, obs::JournalEventKind::kSpotEscalate, "engine.spotcheck",
        {{"audit", 1},
         {"pool", static_cast<std::int64_t>(pool_.size())},
         {"generation",
          static_cast<std::int64_t>(
              tracker_ != nullptr ? tracker_->generation() : 0)}});
  };
  if (tracker_ == nullptr || &tracker_->graph() != &g ||
      &tracker_->proof() != &p || a.radius() > tracker_->horizon()) {
    honour_audit();
    return exact_run(g, p, a);
  }
  const auto records = tracker_->records_since(consumed_generation_);
  if (!records.has_value() || !baseline_valid_ || baseline_graph_ != &g ||
      baseline_verifier_ != &a) {
    honour_audit();
    return exact_run(g, p, a);
  }
  if (audit || !baseline_all_accept_) {
    // Operator audit, or the state is already rejecting: statistical
    // acceptance has nothing to offer until the verdict heals.
    honour_audit();
    return exact_run(g, p, a);
  }

  absorb_records(g, a.radius(), *records);
  consumed_generation_ = tracker_->generation();
  last_sample_.clear();

  if (pool_.empty()) {
    ++stats_.unchanged_runs;
    refresh_stats_bounds();
    RunResult result;
    result.all_accept = true;
    result.evaluated = 0;
    return result;
  }

  // Sample size from the budget; budget == 1 verifies the whole pool.
  const std::size_t pool_size = pool_.size();
  std::size_t k = options_.budget >= 1.0
                      ? pool_size
                      : static_cast<std::size_t>(std::ceil(
                            options_.budget *
                            static_cast<double>(pool_size)));
  k = std::max<std::size_t>(k, 1);
  k = std::min(k, pool_size);

  // Efraimidis–Spirakis A-Res over the pool in ascending-centre order:
  // key_i = u_i^(1/w_i), take the k largest.  One rng draw per entry, so
  // the stream advances identically across inner backends.
  keys_.resize(pool_size);
  order_.resize(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    const double u = rng_.next_unit();
    keys_[i] = std::pow(u, 1.0 / pool_[i].weight);
    order_[i] = static_cast<int>(i);
  }
  std::nth_element(order_.begin(), order_.begin() + (k - 1), order_.end(),
                   [&](int x, int y) {
                     if (keys_[x] != keys_[y]) return keys_[x] > keys_[y];
                     return pool_[static_cast<std::size_t>(x)].center <
                            pool_[static_cast<std::size_t>(y)].center;
                   });
  last_sample_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    last_sample_.push_back(
        pool_[static_cast<std::size_t>(order_[i])].center);
  }
  std::sort(last_sample_.begin(), last_sample_.end());

  // Verify the sampled balls exactly against the current state.
  extractor_.bind(g);
  std::vector<int> sampled_rejecting;
  for (int c : last_sample_) {
    const View view = extractor_.extract(p, c, a.radius());
    if (!a.accept(view)) sampled_rejecting.push_back(c);
  }
  ++stats_.sampled_runs;
  stats_.balls_sampled += static_cast<std::uint64_t>(k);
  stats_.balls_skipped += static_cast<std::uint64_t>(pool_size - k);
  obs::maybe_emit(
      journal_, obs::JournalEventKind::kSpotSample, "engine.spotcheck",
      {{"pool", static_cast<std::int64_t>(pool_size)},
       {"sampled", static_cast<std::int64_t>(k)},
       {"rejected", static_cast<std::int64_t>(sampled_rejecting.size())},
       {"generation", static_cast<std::int64_t>(tracker_->generation())}});

  if (!sampled_rejecting.empty()) {
    // Soundness escalation: the REJECT the caller sees comes from a full
    // dirty sweep on the exact inner engine, never from the sample alone.
    ++stats_.escalations;
    obs::maybe_emit(
        journal_, obs::JournalEventKind::kSpotEscalate, "engine.spotcheck",
        {{"audit", 0},
         {"pool", static_cast<std::int64_t>(pool_size)},
         {"center", sampled_rejecting.front()},
         {"generation",
          static_cast<std::int64_t>(tracker_->generation())}});
    return exact_run(g, p, a);
  }

  // All sampled balls accept: remove them from the pool and decay each
  // survivor's miss bound by a provable lower bound on its inclusion
  // probability this run.  On a uniformly weighted pool inclusion is
  // exactly k/|pool|.  On a boosted pool an unboosted entry's inclusion
  // probability can fall BELOW k/|pool| (the boosted entries absorb the
  // budget), so the uniform factor would understate the miss; instead
  // use (1 - w_i/W)^k, sound because taking the k largest Efraimidis–
  // Spirakis keys is distributed as k successive weighted draws without
  // replacement and each draw picks a still-unsampled entry with
  // conditional probability w_i/W_remaining >= w_i/W.  Inclusion
  // probabilities are monotone in weight and sum to k, so a maximum-
  // weight entry's is >= k/|pool|: its factor is additionally capped by
  // the uniform one.
  double total_weight = 0.0;
  double min_weight = pool_.front().weight;
  double max_weight = pool_.front().weight;
  for (const PoolEntry& e : pool_) {
    total_weight += e.weight;
    min_weight = std::min(min_weight, e.weight);
    max_weight = std::max(max_weight, e.weight);
  }
  const bool uniform_pool = min_weight == max_weight;
  const double uniform_factor =
      1.0 - static_cast<double>(k) / static_cast<double>(pool_size);
  std::size_t out = 0;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    while (cursor < last_sample_.size() &&
           last_sample_[cursor] < pool_[i].center) {
      ++cursor;
    }
    if (cursor < last_sample_.size() &&
        last_sample_[cursor] == pool_[i].center) {
      continue;  // verified: leaves the pool
    }
    double factor = uniform_factor;
    if (!uniform_pool) {
      factor = std::pow(1.0 - pool_[i].weight / total_weight,
                        static_cast<double>(k));
      if (pool_[i].weight == max_weight) {
        factor = std::min(factor, uniform_factor);
      }
    }
    pool_[out] = pool_[i];
    pool_[out].miss *= factor;
    ++out;
  }
  pool_.resize(out);
  refresh_stats_bounds();

  RunResult result;
  result.all_accept = true;
  result.evaluated = static_cast<std::uint64_t>(k);
  return result;
}

}  // namespace lcp
