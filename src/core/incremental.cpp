#include "core/incremental.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

namespace {

// dirty_mark_ bit layout: a centre may need a proof refresh, an in-place
// patch verdict, and a re-extraction independently; re-extraction swallows
// the other two (a fresh extraction reads current labels and proofs).
constexpr std::uint8_t kProofDirty = 1;
constexpr std::uint8_t kPatchedDirty = 2;
constexpr std::uint8_t kReextractDirty = 4;

}  // namespace

IncrementalEngine::~IncrementalEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void IncrementalEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  const auto stat = [this](std::uint64_t Stats::*field) {
    return [this, field] { return static_cast<double>(stats_.*field); };
  };
  registry.derived("engine.incremental.full_sweeps",
                   stat(&Stats::full_sweeps), this);
  registry.derived("engine.incremental.incremental_runs",
                   stat(&Stats::incremental_runs), this);
  registry.derived("engine.incremental.unchanged_runs",
                   stat(&Stats::unchanged_runs), this);
  registry.derived("engine.incremental.nodes_reverified",
                   stat(&Stats::nodes_reverified), this);
  registry.derived("engine.incremental.fallbacks", stat(&Stats::fallbacks),
                   this);
  registry.derived("engine.incremental.views_patched",
                   stat(&Stats::views_patched), this);
  registry.derived("engine.incremental.patch_fallbacks",
                   stat(&Stats::patch_fallbacks), this);
  registry.derived("engine.incremental.reextractions",
                   stat(&Stats::reextractions), this);
  registry.derived("engine.incremental.store_adoptions",
                   stat(&Stats::store_adoptions), this);
  registry.derived("engine.incremental.sharded_rounds",
                   stat(&Stats::sharded_rounds), this);
  registry.derived(
      "engine.incremental.cached_ball_nodes",
      [this] { return static_cast<double>(cached_ball_nodes_); }, this);
  if (options_.store != nullptr) {
    register_ball_store_metrics(registry, options_.store, "store.ball",
                                this);
  }
  if (pool_ != nullptr) {
    pool_->register_metrics(registry, "pool.incremental", this);
  }
}

bool IncrementalEngine::attach_tracker(DeltaTracker* tracker) {
  tracker_ = tracker;
  invalidate();
  if (tracker_ != nullptr) consumed_generation_ = tracker_->generation();
  return true;
}

void IncrementalEngine::invalidate() {
  cache_valid_ = false;
  overflowed_ = false;
  cache_from_tracker_ = false;
  cached_verifier_ = nullptr;
  cached_radius_ = -1;
  cached_graph_fp_ = 0;
  cached_graph_fp_valid_ = false;
  cache_.clear();
  inverted_.clear();
  verdicts_.clear();
  last_proofs_.clear();
  cached_ball_nodes_ = 0;
}

RunResult IncrementalEngine::result_from_verdicts() const {
  RunResult result;
  // memchr skips the long accepting stretches a word at a time.
  const std::uint8_t* const first = verdicts_.data();
  std::size_t from = 0;
  while (from < verdicts_.size()) {
    const void* hit = std::memchr(first + from, 0, verdicts_.size() - from);
    if (hit == nullptr) break;
    const auto v = static_cast<std::size_t>(
        static_cast<const std::uint8_t*>(hit) - first);
    result.all_accept = false;
    result.rejecting.push_back(static_cast<int>(v));
    from = v + 1;
  }
  return result;
}

RunResult IncrementalEngine::run(const Graph& g, const Proof& p,
                                 const LocalVerifier& a) {
  // Only the delta paths repopulate this; any other outcome (full sweep,
  // unchanged run, fallback) leaves the stable dirty-set surface empty.
  last_dirty_centers_.clear();
  if (tracker_ != nullptr && &tracker_->graph() == &g &&
      &tracker_->proof() == &p && tracker_->horizon() >= a.radius()) {
    return run_tracker_path(g, p, a);
  }
  return run_content_path(g, p, a);
}

void IncrementalEngine::refresh_changed_proofs(BallPtr& slot,
                                               const Proof& p) const {
  // Members not flagged still hold the label they were cached with, which
  // is p's; a flagged one is copied (cloning a shared ball) only when it
  // differs, so an identical rewrite keeps the ball shared.
  const std::size_t size = slot->host.size();
  for (std::size_t i = 0; i < size; ++i) {
    const auto u = static_cast<std::size_t>(slot->host[i]);
    if (proof_changed_[u] == 0 || slot->view.proofs[i] == p.labels[u]) {
      continue;
    }
    exclusive_ball(slot).view.proofs[i] = p.labels[u];
  }
}

void IncrementalEngine::rebuild_inverted_index() {
  // Count first, then fill: one exactly sized allocation per node instead
  // of push_back's growth chain.
  const int n = static_cast<int>(cache_.size());
  std::vector<int> count(static_cast<std::size_t>(n), 0);
  for (const BallPtr& ball : cache_) {
    for (int u : ball->host) ++count[static_cast<std::size_t>(u)];
  }
  inverted_.assign(static_cast<std::size_t>(n), {});
  for (int u = 0; u < n; ++u) {
    inverted_[static_cast<std::size_t>(u)].reserve(
        static_cast<std::size_t>(count[static_cast<std::size_t>(u)]));
  }
  for (int c = 0; c < n; ++c) {
    for (int u : cache_[static_cast<std::size_t>(c)]->host) {
      inverted_[static_cast<std::size_t>(u)].push_back(c);
    }
  }
}

RunResult IncrementalEngine::full_sweep(const Graph& g, const Proof& p,
                                        const LocalVerifier& a,
                                        std::uint64_t graph_fp) {
  const obs::TraceRecorder::Span span =
      obs::maybe_span(telemetry_, "incremental.full_sweep");
  ++stats_.full_sweeps;
  const int n = g.n();
  const int radius = a.radius();

  cache_.clear();
  inverted_.assign(static_cast<std::size_t>(n), {});
  proof_changed_.assign(static_cast<std::size_t>(n), 0);
  verdicts_.assign(static_cast<std::size_t>(n), 1);
  last_proofs_ = p.labels;
  cached_ball_nodes_ = 0;
  overflowed_ = false;
  cache_valid_ = false;
  cached_verifier_ = &a;
  cached_radius_ = radius;
  cached_graph_fp_ = graph_fp;
  cached_graph_fp_valid_ = true;

  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(n);

  // Adoption: a warm sweep another engine published for this exact
  // (fingerprint, radius) replaces extraction outright.  The balls stay
  // shared — refresh_ball_proofs COW-diverges only those whose proofs
  // differ from p, so adopting under an identical proof copies nothing.
  // `graph_fp` is always computed fresh by the callers (never the lazily
  // invalidated cached_graph_fp_), so stale keys cannot reach the store.
  if (options_.store != nullptr) {
    std::vector<BallPtr> adopted;
    std::size_t ball_nodes = 0;
    if (options_.store->lookup(graph_fp, radius, &adopted, &ball_nodes) &&
        static_cast<int>(adopted.size()) == n &&
        ball_nodes <= options_.max_cached_ball_nodes) {
      ++stats_.store_adoptions;
      cache_ = std::move(adopted);
      cached_ball_nodes_ = ball_nodes;
      batch_views_.resize(static_cast<std::size_t>(n));
      batch_out_.resize(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) {
        BallPtr& slot = cache_[static_cast<std::size_t>(v)];
        refresh_ball_proofs(slot, p);
        batch_views_[static_cast<std::size_t>(v)] = &slot->view;
      }
      a.accept_batch(batch_views_.data(), static_cast<std::size_t>(n),
                     batch_out_.data());
      for (int v = 0; v < n; ++v) {
        const bool ok = batch_out_[static_cast<std::size_t>(v)] != 0;
        verdicts_[static_cast<std::size_t>(v)] = ok ? 1 : 0;
        if (!ok) {
          result.all_accept = false;
          result.rejecting.push_back(v);
        }
      }
      rebuild_inverted_index();
      cache_valid_ = true;
      return result;
    }
  }

  extractor_.bind(g);
  cache_.reserve(static_cast<std::size_t>(n));
  bool caching = true;
  for (int v = 0; v < n; ++v) {
    auto ball = std::make_shared<CachedNodeView>();
    ball->view =
        extractor_.extract(p, v, radius, caching ? &ball->host : nullptr);
    const bool ok = a.accept(ball->view);
    verdicts_[static_cast<std::size_t>(v)] = ok ? 1 : 0;
    if (!ok) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
    if (caching) {
      cached_ball_nodes_ += ball->host.size();
      if (cached_ball_nodes_ > options_.max_cached_ball_nodes) {
        // Too dense to cache at this radius; remember that and sweep
        // uncached until the binding or the radius changes.
        caching = false;
        overflowed_ = true;
        cache_.clear();
        cache_.shrink_to_fit();
        inverted_.clear();
        obs::maybe_emit(journal_, obs::JournalEventKind::kCacheOverflow,
                        "engine.incremental", {{"radius", radius}});
      } else {
        cache_.push_back(std::move(ball));
      }
    }
  }
  if (caching) {
    rebuild_inverted_index();
    cache_valid_ = true;
    if (options_.store != nullptr) {
      // Shared handles, not copies; see the adoption comment above.
      options_.store->publish(graph_fp, radius, cache_, cached_ball_nodes_);
    }
  }
  return result;
}

void IncrementalEngine::reverify(const Graph& g, const Proof& p,
                                 const LocalVerifier& a,
                                 const std::vector<int>& reextract_centers,
                                 const std::vector<int>& patched_centers,
                                 const std::vector<int>& proof_dirty) {
  const int radius = cached_radius_;
  const std::size_t count =
      reextract_centers.size() + patched_centers.size() + proof_dirty.size();
  const int workers = options_.shard_threads;
  const bool shard = workers > 1 && count >= options_.shard_min_centers &&
                     count >= 2;
  if (shard) {
    if (pool_ == nullptr || pool_->size() < workers) {
      pool_ = std::make_unique<WorkerPool>(workers);
      if (telemetry_ != nullptr) {
        // Lazy registration at pool creation; on growth, derived()
        // replaces the same-name lane callbacks with the new pool's.
        pool_->register_metrics(telemetry_->metrics, "pool.incremental",
                                this);
      }
    }
    ++stats_.sharded_rounds;
    obs::maybe_emit(journal_, obs::JournalEventKind::kLaneDispatch,
                    "engine.incremental",
                    {{"lanes", workers},
                     {"centers", static_cast<std::int64_t>(count)}});
  }

  if (!reextract_centers.empty()) {
    const obs::TraceRecorder::Span reextract_span =
        obs::maybe_span(telemetry_, "incremental.reextract");
    // Unhook the centres from their old balls' inverted lists first; the
    // extractions themselves are independent (each writes only its own
    // slot), so they shard cleanly.  Replacing the slot's pointer outright
    // needs no COW: any other owner keeps the old ball alive unchanged.
    for (int c : reextract_centers) {
      const BallPtr& slot = cache_[static_cast<std::size_t>(c)];
      for (int u : slot->host) {
        auto& list = inverted_[static_cast<std::size_t>(u)];
        for (std::size_t i = 0; i < list.size(); ++i) {
          if (list[i] == c) {
            list[i] = list.back();
            list.pop_back();
            break;
          }
        }
      }
      cached_ball_nodes_ -= slot->host.size();
    }
    const int m = static_cast<int>(reextract_centers.size());
    if (shard && m >= 2) {
      const int active = std::min({workers, pool_->size(), m});
      const std::function<void(int)> job = [&](int w) {
        const int lo =
            static_cast<int>(static_cast<long long>(m) * w / active);
        const int hi =
            static_cast<int>(static_cast<long long>(m) * (w + 1) / active);
        ViewExtractor extractor(g);
        for (int i = lo; i < hi; ++i) {
          const int c = reextract_centers[static_cast<std::size_t>(i)];
          auto ball = std::make_shared<CachedNodeView>();
          ball->view = extractor.extract(p, c, radius, &ball->host);
          cache_[static_cast<std::size_t>(c)] = std::move(ball);
        }
      };
      pool_->dispatch(active, job);
    } else {
      extractor_.bind(g);
      for (int c : reextract_centers) {
        auto ball = std::make_shared<CachedNodeView>();
        ball->view = extractor_.extract(p, c, radius, &ball->host);
        cache_[static_cast<std::size_t>(c)] = std::move(ball);
      }
    }
    for (int c : reextract_centers) {
      const BallPtr& slot = cache_[static_cast<std::size_t>(c)];
      cached_ball_nodes_ += slot->host.size();
      for (int u : slot->host) {
        inverted_[static_cast<std::size_t>(u)].push_back(c);
      }
    }
    stats_.reextractions += reextract_centers.size();
  }
  const obs::TraceRecorder::Span verify_span =
      obs::maybe_span(telemetry_, "incremental.verify");
  batch_centers_.clear();
  batch_centers_.reserve(count);
  for (const std::vector<int>* list :
       {&reextract_centers, &patched_centers, &proof_dirty}) {
    batch_centers_.insert(batch_centers_.end(), list->begin(), list->end());
  }
  batch_views_.resize(count);
  batch_out_.resize(count);
  // Patched balls carry current structure but possibly stale proofs when a
  // proof flip rode along in the same batch, and proof-dirty balls need
  // the flip itself.  Each block of balls is refreshed right before it is
  // verified, so the verifier reads them while they are still in cache.
  const std::size_t fresh = reextract_centers.size();
  const auto verify_range = [&](std::size_t lo, std::size_t hi) {
    constexpr std::size_t kBlock = 64;
    for (std::size_t begin = lo; begin < hi; begin += kBlock) {
      const std::size_t end = std::min(hi, begin + kBlock);
      // The balls sit far apart in the heap: start all of the block's
      // loads before walking it, instead of one miss after another.
      for (std::size_t i = begin; i < end; ++i) {
        __builtin_prefetch(
            cache_[static_cast<std::size_t>(batch_centers_[i])].get());
      }
      for (std::size_t i = begin; i < end; ++i) {
        const CachedNodeView& ball =
            *cache_[static_cast<std::size_t>(batch_centers_[i])];
        __builtin_prefetch(ball.host.data());
        __builtin_prefetch(ball.view.proofs.data());
      }
      for (std::size_t i = begin; i < end; ++i) {
        BallPtr& slot = cache_[static_cast<std::size_t>(batch_centers_[i])];
        if (i >= fresh) refresh_changed_proofs(slot, p);
        batch_views_[i] = &slot->view;
      }
      a.accept_batch(batch_views_.data() + begin, end - begin,
                     batch_out_.data() + begin);
    }
  };
  if (shard) {
    const int active =
        std::min({workers, pool_->size(), static_cast<int>(count)});
    const std::function<void(int)> job = [&](int w) {
      verify_range(count * static_cast<std::size_t>(w) /
                       static_cast<std::size_t>(active),
                   count * (static_cast<std::size_t>(w) + 1) /
                       static_cast<std::size_t>(active));
    };
    pool_->dispatch(active, job);
  } else {
    verify_range(0, count);
  }
  for (std::size_t i = 0; i < count; ++i) {
    verdicts_[static_cast<std::size_t>(batch_centers_[i])] = batch_out_[i];
  }
  stats_.nodes_reverified += count;
}

RunResult IncrementalEngine::run_tracker_path(const Graph& g, const Proof& p,
                                              const LocalVerifier& a) {
  const int n = g.n();
  const int radius = a.radius();

  if (overflowed_ && radius == cached_radius_) {
    ++stats_.full_sweeps;
    consumed_generation_ = tracker_->generation();
    return sweep_sequential(g, p, a);
  }

  auto rebuild = [&] {
    RunResult result = full_sweep(g, p, a, graph_fingerprint(g));
    cache_from_tracker_ = true;
    consumed_generation_ = tracker_->generation();
    return result;
  };

  // cache_from_tracker_ guards against an interleaved content-path run on
  // a foreign graph having rebuilt the cache: those verdicts belong to the
  // other graph even when n and radius coincide.
  if (!cache_valid_ || !cache_from_tracker_ || radius != cached_radius_ ||
      &a != cached_verifier_) {
    return rebuild();
  }
  const auto records = tracker_->records_since(consumed_generation_);
  if (!records.has_value()) {
    // The dirty log was trimmed past our position.
    ++stats_.fallbacks;
    return rebuild();
  }
  if (options_.verify_state &&
      DeltaTracker::state_fingerprint_of(g, p) !=
          tracker_->state_fingerprint()) {
    // Out-of-band mutation: the tracker no longer describes the state.
    ++stats_.fallbacks;
    tracker_->resync();
    return rebuild();
  }
  // Node additions grow the cache in place.  Every added node sits in its
  // record's structural_dirty set (and arrives as a kAddNode delta), so
  // the passes below fill the fresh slots; any size drift the records
  // cannot account for means the cache belongs to another state.
  std::size_t added = 0;
  for (const DirtyRecord* record : *records) {
    added += record->added_nodes.size();
  }
  if (verdicts_.size() + added != static_cast<std::size_t>(n)) {
    ++stats_.fallbacks;
    return rebuild();
  }
  if (added > 0) {
    cache_.resize(static_cast<std::size_t>(n));
    for (std::size_t v = verdicts_.size(); v < cache_.size(); ++v) {
      // Placeholder until the kAddNode delta (patching) or re-extraction
      // (legacy path) materialises the real ball.
      cache_[v] = std::make_shared<CachedNodeView>();
    }
    inverted_.resize(static_cast<std::size_t>(n));
    proof_changed_.resize(static_cast<std::size_t>(n), 0);
    verdicts_.resize(static_cast<std::size_t>(n), 1);
    last_proofs_.resize(static_cast<std::size_t>(n));
  }
  if (records->empty()) {
    ++stats_.unchanged_runs;
    return result_from_verdicts();
  }

  // Merge the records into per-centre dirtiness bits via the inverted
  // index; ascending centre order at the end keeps the round
  // deterministic.
  obs::TraceRecorder::Span dirty_scan_span =
      obs::maybe_span(telemetry_, "incremental.dirty_scan");
  dirty_mark_.assign(static_cast<std::size_t>(n), 0);
  dirty_scratch_.clear();
  auto mark = [&](int c, std::uint8_t bits) {
    std::uint8_t& m = dirty_mark_[static_cast<std::size_t>(c)];
    if (m == 0) dirty_scratch_.push_back(c);
    m |= bits;
  };
  bool graph_changed = false;

  if (options_.patch_views) {
    // Replay the ops against the cached balls.  Classification consults
    // only the view itself plus host ids, so replaying against the final
    // graph state is sound; each patch keeps the ball's membership (and
    // hence the inverted index) exact, and any delta that would move a
    // frontier demotes the centre to re-extraction from the final state.
    if (op_epoch_.size() < static_cast<std::size_t>(n)) {
      op_epoch_.resize(static_cast<std::size_t>(n), 0);
    }
    for (const DirtyRecord* record : *records) {
      for (const ViewDelta& d : record->deltas) {
        graph_changed = true;
        if (d.kind == ViewDelta::Kind::kAddNode) {
          const int v = d.u;
          auto ball = std::make_shared<CachedNodeView>();
          ball->view = make_isolated_view(g, p, v, radius);
          ball->host.push_back(v);
          cache_[static_cast<std::size_t>(v)] = std::move(ball);
          cached_ball_nodes_ += 1;
          inverted_[static_cast<std::size_t>(v)].push_back(v);
          mark(v, kPatchedDirty);
          continue;
        }
        ++op_epoch_counter_;
        auto visit = [&](int epicentre) {
          for (int c : inverted_[static_cast<std::size_t>(epicentre)]) {
            std::uint64_t& seen = op_epoch_[static_cast<std::size_t>(c)];
            if (seen == op_epoch_counter_) continue;
            seen = op_epoch_counter_;
            if (dirty_mark_[static_cast<std::size_t>(c)] & kReextractDirty) {
              continue;  // re-extracts from the final state anyway
            }
            BallPtr& slot = cache_[static_cast<std::size_t>(c)];
            switch (slot->view.classify_delta(g, d)) {
              case PatchResult::kUnchanged:
                break;
              case PatchResult::kPatched:
                exclusive_ball(slot).view.apply_delta_unchecked(g, d);
                ++stats_.views_patched;
                mark(c, kPatchedDirty);
                break;
              case PatchResult::kFallback:
                ++stats_.patch_fallbacks;
                mark(c, kReextractDirty);
                break;
            }
          }
        };
        visit(d.u);
        if (d.kind != ViewDelta::Kind::kNodeLabel) visit(d.v);
      }
      for (int u : record->proof_nodes) {
        proof_changed_[static_cast<std::size_t>(u)] = 1;
        for (int c : inverted_[static_cast<std::size_t>(u)]) {
          mark(c, kProofDirty);
        }
      }
    }
  } else {
    for (const DirtyRecord* record : *records) {
      for (int u : record->proof_nodes) {
        proof_changed_[static_cast<std::size_t>(u)] = 1;
        for (int c : inverted_[static_cast<std::size_t>(u)]) {
          mark(c, kProofDirty);
        }
      }
      for (int u : record->relabeled_nodes) {
        for (int c : inverted_[static_cast<std::size_t>(u)]) {
          mark(c, kReextractDirty);
        }
      }
      for (int c : record->structural_dirty) mark(c, kReextractDirty);
      graph_changed = graph_changed || !record->relabeled_nodes.empty() ||
                      !record->structural_dirty.empty();
    }
  }

  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  std::vector<int> reextract;
  std::vector<int> patched;
  std::vector<int> proof_dirty;
  for (int c : dirty_scratch_) {
    const std::uint8_t m = dirty_mark_[static_cast<std::size_t>(c)];
    if (m & kReextractDirty) {
      reextract.push_back(c);
    } else if (m & kPatchedDirty) {
      patched.push_back(c);
    } else {
      proof_dirty.push_back(c);
    }
  }

  dirty_scan_span.close();
  if (!reextract.empty()) {
    obs::maybe_emit(
        journal_, obs::JournalEventKind::kPatchFallback, "engine.incremental",
        {{"reextracted", static_cast<std::int64_t>(reextract.size())},
         {"patched", static_cast<std::int64_t>(patched.size())},
         {"proof_dirty", static_cast<std::int64_t>(proof_dirty.size())}});
  }
  reverify(g, p, a, reextract, patched, proof_dirty);
  if (cached_ball_nodes_ > options_.max_cached_ball_nodes) {
    // Edge churn grew the balls past the cap: abandon the cache.
    overflowed_ = true;
    cache_valid_ = false;
    cache_.clear();
    cache_.shrink_to_fit();
    inverted_.clear();
    ++stats_.full_sweeps;
    consumed_generation_ = tracker_->generation();
    obs::maybe_emit(journal_, obs::JournalEventKind::kCacheOverflow,
                    "engine.incremental", {{"radius", radius}});
    return sweep_sequential(g, p, a);
  }

  for (const DirtyRecord* record : *records) {
    for (int u : record->proof_nodes) {
      last_proofs_[static_cast<std::size_t>(u)] =
          p.labels[static_cast<std::size_t>(u)];
      proof_changed_[static_cast<std::size_t>(u)] = 0;
    }
  }
  if (graph_changed) cached_graph_fp_valid_ = false;
  consumed_generation_ = tracker_->generation();
  last_dirty_centers_ = dirty_scratch_;  // sorted above: stable ordering
  ++stats_.incremental_runs;
  RunResult result = result_from_verdicts();
  result.evaluated = static_cast<std::uint64_t>(
      reextract.size() + patched.size() + proof_dirty.size());
  return result;
}

RunResult IncrementalEngine::run_content_path(const Graph& g, const Proof& p,
                                              const LocalVerifier& a) {
  const int n = g.n();
  const int radius = a.radius();
  const std::uint64_t fp = graph_fingerprint(g);

  if (overflowed_ && cached_graph_fp_valid_ && fp == cached_graph_fp_ &&
      radius == cached_radius_ && &a == cached_verifier_) {
    ++stats_.full_sweeps;
    return sweep_sequential(g, p, a);
  }
  if (!cache_valid_ || !cached_graph_fp_valid_ || fp != cached_graph_fp_ ||
      radius != cached_radius_ || &a != cached_verifier_ ||
      static_cast<int>(last_proofs_.size()) != n ||
      static_cast<int>(p.labels.size()) != n) {
    RunResult result = full_sweep(g, p, a, fp);
    cache_from_tracker_ = false;
    return result;
  }

  // Exact proof diff against the retained copy.  The copy is only
  // committed after reverify() succeeds: a throwing verifier must not
  // leave future diffs blind to this mutation.
  dirty_mark_.assign(static_cast<std::size_t>(n), 0);
  dirty_scratch_.clear();
  std::vector<int> changed_nodes;
  for (int v = 0; v < n; ++v) {
    if (p.labels[static_cast<std::size_t>(v)] ==
        last_proofs_[static_cast<std::size_t>(v)]) {
      continue;
    }
    changed_nodes.push_back(v);
    proof_changed_[static_cast<std::size_t>(v)] = 1;
    for (int c : inverted_[static_cast<std::size_t>(v)]) {
      if (!dirty_mark_[static_cast<std::size_t>(c)]) {
        dirty_mark_[static_cast<std::size_t>(c)] = kProofDirty;
        dirty_scratch_.push_back(c);
      }
    }
  }
  if (changed_nodes.empty()) {
    ++stats_.unchanged_runs;
    return result_from_verdicts();
  }
  std::sort(dirty_scratch_.begin(), dirty_scratch_.end());
  reverify(g, p, a, {}, {}, dirty_scratch_);
  for (int v : changed_nodes) {
    last_proofs_[static_cast<std::size_t>(v)] =
        p.labels[static_cast<std::size_t>(v)];
    proof_changed_[static_cast<std::size_t>(v)] = 0;
  }
  // The cached verdicts now reflect this (possibly foreign) proof, not the
  // tracker's bound pair — identical-content graphs share a fingerprint,
  // so the tracker path must resweep rather than trust them.
  cache_from_tracker_ = false;
  last_dirty_centers_ = dirty_scratch_;  // sorted above: stable ordering
  ++stats_.incremental_runs;
  RunResult result = result_from_verdicts();
  result.evaluated = static_cast<std::uint64_t>(dirty_scratch_.size());
  return result;
}

}  // namespace lcp
