#include "core/ball_store.hpp"

#include <utility>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace lcp {

void refresh_ball_proofs(BallPtr& slot, const Proof& p) {
  const CachedNodeView& ball = *slot;
  std::size_t first = ball.host.size();
  for (std::size_t i = 0; i < ball.host.size(); ++i) {
    if (!(ball.view.proofs[i] ==
          p.labels[static_cast<std::size_t>(ball.host[i])])) {
      first = i;
      break;
    }
  }
  if (first == ball.host.size()) return;  // identical proofs: keep sharing
  CachedNodeView& mine = exclusive_ball(slot);
  for (std::size_t i = first; i < mine.host.size(); ++i) {
    mine.view.proofs[i] = p.labels[static_cast<std::size_t>(mine.host[i])];
  }
}

BallStore::Entry* BallStore::find_locked(std::uint64_t fingerprint,
                                         int radius) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fingerprint == fingerprint && it->radius == radius) {
      entries_.splice(entries_.begin(), entries_, it);
      return &entries_.front();
    }
  }
  return nullptr;
}

void BallStore::evict_to_budget_locked(std::size_t incoming_entries) {
  while (!entries_.empty() &&
         (entries_.size() + incoming_entries > options_.max_entries ||
          ball_nodes_ > options_.max_ball_nodes)) {
    ball_nodes_ -= entries_.back().ball_nodes;
    entries_.pop_back();
    counters_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool BallStore::lookup(std::uint64_t fingerprint, int radius,
                       std::vector<BallPtr>* out, std::size_t* ball_nodes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_locked(fingerprint, radius);
  if (entry == nullptr) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  *out = entry->balls;  // shared ownership, not a deep copy
  if (ball_nodes != nullptr) *ball_nodes = entry->ball_nodes;
  obs::maybe_emit(journal_.load(std::memory_order_relaxed),
                  obs::JournalEventKind::kStoreAdopt, "store.ball",
                  {{"radius", radius},
                   {"balls", static_cast<std::int64_t>(entry->balls.size())},
                   {"ball_nodes",
                    static_cast<std::int64_t>(entry->ball_nodes)}});
  return true;
}

BallPtr BallStore::lookup_ball(std::uint64_t fingerprint, int radius,
                               int node) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = find_locked(fingerprint, radius);
  if (entry == nullptr || node < 0 ||
      node >= static_cast<int>(entry->balls.size())) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  return entry->balls[static_cast<std::size_t>(node)];
}

bool BallStore::publish(std::uint64_t fingerprint, int radius,
                        std::vector<BallPtr> balls, std::size_t ball_nodes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ball_nodes > options_.max_ball_nodes) {
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (Entry* existing = find_locked(fingerprint, radius); existing != nullptr) {
    ball_nodes_ -= existing->ball_nodes;
    existing->ball_nodes = ball_nodes;
    existing->balls = std::move(balls);
    ball_nodes_ += ball_nodes;
  } else {
    evict_to_budget_locked(/*incoming_entries=*/1);
    Entry entry;
    entry.fingerprint = fingerprint;
    entry.radius = radius;
    entry.ball_nodes = ball_nodes;
    entry.balls = std::move(balls);
    ball_nodes_ += ball_nodes;
    entries_.push_front(std::move(entry));
  }
  counters_.publishes.fetch_add(1, std::memory_order_relaxed);
  obs::maybe_emit(journal_.load(std::memory_order_relaxed),
                  obs::JournalEventKind::kStorePublish, "store.ball",
                  {{"radius", radius},
                   {"ball_nodes", static_cast<std::int64_t>(ball_nodes)}});
  // The new entry may itself push the total over the ball budget; never
  // evict the entry just published (it is at the front).
  while (entries_.size() > 1 && ball_nodes_ > options_.max_ball_nodes) {
    ball_nodes_ -= entries_.back().ball_nodes;
    entries_.pop_back();
    counters_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void BallStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  ball_nodes_ = 0;
}

BallStoreStats BallStore::stats() const {
  // Lock-free: the counters are relaxed atomics (see the header contract).
  BallStoreStats out;
  out.hits = counters_.hits.load(std::memory_order_relaxed);
  out.misses = counters_.misses.load(std::memory_order_relaxed);
  out.publishes = counters_.publishes.load(std::memory_order_relaxed);
  out.evictions = counters_.evictions.load(std::memory_order_relaxed);
  out.rejected = counters_.rejected.load(std::memory_order_relaxed);
  return out;
}

std::size_t BallStore::entry_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t BallStore::ball_nodes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ball_nodes_;
}

void register_ball_store_metrics(obs::MetricRegistry& registry,
                                 std::shared_ptr<BallStore> store,
                                 const std::string& prefix,
                                 const void* owner) {
  const auto count = [store](std::uint64_t BallStoreStats::*field) {
    return [store, field] {
      return static_cast<double>(store->stats().*field);
    };
  };
  registry.derived(prefix + ".hits", count(&BallStoreStats::hits), owner);
  registry.derived(prefix + ".misses", count(&BallStoreStats::misses), owner);
  registry.derived(prefix + ".publishes", count(&BallStoreStats::publishes),
                   owner);
  registry.derived(prefix + ".evictions", count(&BallStoreStats::evictions),
                   owner);
  registry.derived(prefix + ".rejected", count(&BallStoreStats::rejected),
                   owner);
  registry.derived(
      prefix + ".hit_rate",
      [store] {
        const BallStoreStats s = store->stats();
        const std::uint64_t total = s.hits + s.misses;
        return total == 0 ? 0.0
                          : static_cast<double>(s.hits) /
                                static_cast<double>(total);
      },
      owner);
  registry.derived(
      prefix + ".entries",
      [store] { return static_cast<double>(store->entry_count()); }, owner);
  registry.derived(
      prefix + ".ball_nodes",
      [store] { return static_cast<double>(store->ball_nodes()); }, owner);
}

}  // namespace lcp
