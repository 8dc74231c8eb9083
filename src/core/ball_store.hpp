// The shared ball store: a refcounted, copy-on-write cache of extracted
// radius-r balls, keyed on (graph fingerprint, radius, node).
//
// A caching engine's per-node view cache is private to it, so a warm sweep
// by one engine would do nothing for a second engine over the same graph.
// The BallStore factors that storage out: IncrementalEngine instances publish
// the balls they extract and adopt the balls other instances published,
// sharing the underlying CachedNodeView objects by shared_ptr instead of
// copying them.
//
// Sharing is safe because of a copy-on-write contract: a CachedNodeView
// reachable from more than one owner (the store plus any engine working set)
// is immutable; all mutation goes through exclusive_ball(), which clones the
// ball exactly when it is shared.  Two engines working off one store
// therefore never observe each other's in-flight proof refreshes or view
// patches — each first mutation diverges the mutating engine's copy, and the
// store keeps the pristine snapshot until it is evicted or republished.
// tests/test_ball_store.cpp pins these semantics.
//
// Locking contract (the store is thread-safe, not merely compatible):
//   - entries_ and ball_nodes_ are guarded by mutex_; every
//     member function that touches them takes the lock.
//   - The hit/miss/publish/eviction counters are relaxed atomics, updated
//     under the lock but readable without it: stats() never blocks a
//     concurrent lookup, and ThreadSanitizer sees no race.  Relaxed order
//     is enough because the counters carry no cross-thread ordering — they
//     are monotone tallies, and any reader tolerates a slightly stale sum.
//   - BallPtr refcounts are shared_ptr control blocks, atomic by language
//     guarantee.  exclusive_ball()'s use_count()==1 test is only meaningful
//     for a slot owned by a single thread (each engine's private working
//     set); two threads must never mutate through the *same* BallPtr slot.
//     Distinct slots aliasing one ball are fine — the first mutator clones.
#ifndef LCP_CORE_BALL_STORE_HPP_
#define LCP_CORE_BALL_STORE_HPP_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "core/proof.hpp"
#include "core/view.hpp"

namespace lcp {

namespace obs {
class Journal;
class MetricRegistry;
}  // namespace obs

/// One node's materialised view plus the host dense index of each ball
/// node (host[i] belongs to ball node i); the view-caching engines use it
/// to refresh proof labels without re-extraction.
struct CachedNodeView {
  View view;
  std::vector<int> host;
};

/// Shared handle to a cached ball.  By contract a ball reachable from more
/// than one owner is immutable; mutate only through exclusive_ball().
using BallPtr = std::shared_ptr<CachedNodeView>;

/// Copy-on-write access: returns a mutable reference to the slot's ball,
/// cloning it first when the slot shares ownership with anyone else (the
/// store, another engine).  A use_count of 1 means no other owner can reach
/// the object, so in-place mutation is invisible to third parties.
inline CachedNodeView& exclusive_ball(BallPtr& slot) {
  if (slot.use_count() != 1) {
    slot = std::make_shared<CachedNodeView>(*slot);
  }
  return *slot;
}

/// Rewrites the ball's proof labels from `p` (via the host index map).
/// COW-aware and lazy: the ball is cloned only when some label actually
/// differs, so adopting a shared ball under an identical proof costs
/// nothing but the comparison.
void refresh_ball_proofs(BallPtr& slot, const Proof& p);

struct BallStoreOptions {
  /// Evict least-recently-used entries when the summed ball sizes across
  /// all cached (graph, radius) entries exceed this bound.
  std::size_t max_ball_nodes = std::size_t{1} << 22;
  /// Number of distinct (graph, radius) entries kept.
  std::size_t max_entries = 4;
};

/// A point-in-time snapshot of the store's counters (plain integers; the
/// live counters inside the store are relaxed atomics).
struct BallStoreStats {
  std::uint64_t hits = 0;        ///< lookups that returned a full entry
  std::uint64_t misses = 0;      ///< lookups that found nothing
  std::uint64_t publishes = 0;   ///< entries accepted into the store
  std::uint64_t evictions = 0;   ///< entries dropped for the budget
  std::uint64_t rejected = 0;    ///< publishes refused (over the budget)
};

/// The store proper: (graph fingerprint, radius) -> one BallPtr per node,
/// LRU-evicted under a ball-node budget.  An entry whose ball sum exceeds the
/// budget on its own is refused.
class BallStore {
 public:
  explicit BallStore(BallStoreOptions options = {}) : options_(options) {}

  BallStore(const BallStore&) = delete;
  BallStore& operator=(const BallStore&) = delete;

  /// Fetches the full per-node ball vector for (fingerprint, radius) into
  /// `out` (and the entry's summed ball sizes into `ball_nodes` when
  /// non-null).  Returns false — and counts a miss — when absent.
  bool lookup(std::uint64_t fingerprint, int radius,
              std::vector<BallPtr>* out, std::size_t* ball_nodes = nullptr);

  /// Single-ball fetch for (fingerprint, radius, node); nullptr when the
  /// entry is absent or the node is out of range.  Counts a hit or miss.
  BallPtr lookup_ball(std::uint64_t fingerprint, int radius, int node);

  /// Installs (or replaces) the entry, taking shared ownership of the
  /// balls.  `ball_nodes` is the caller-computed sum of ball sizes (used
  /// for eviction accounting).  Returns false (and counts a rejection) when
  /// the entry alone exceeds the budget.
  bool publish(std::uint64_t fingerprint, int radius,
               std::vector<BallPtr> balls, std::size_t ball_nodes);

  void clear();

  /// Lock-free snapshot of the counters (relaxed loads; see the locking
  /// contract above).  Individual counters are exact; the snapshot as a
  /// whole may be torn across concurrent updates, which tests tolerate by
  /// quiescing first.
  BallStoreStats stats() const;
  std::size_t entry_count() const;
  std::size_t ball_nodes() const;

  /// Offers a flight-recorder journal (nullptr detaches): full-entry
  /// adoptions and publishes emit store_adopt / store_publish events.
  /// Relaxed atomic, same contract as the counters — attach between runs,
  /// emits from any thread.
  void attach_journal(obs::Journal* journal) {
    journal_.store(journal, std::memory_order_relaxed);
  }
  obs::Journal* attached_journal() const {
    return journal_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    int radius = -1;
    std::size_t ball_nodes = 0;
    std::vector<BallPtr> balls;
  };

  /// Requires mutex_ held.  Moves the found entry to the front (LRU).
  Entry* find_locked(std::uint64_t fingerprint, int radius);
  void evict_to_budget_locked(std::size_t incoming_entries);

  BallStoreOptions options_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;  // most recently used first
  std::size_t ball_nodes_ = 0;
  // Live counters: relaxed atomics so stats() needs no lock (see the
  // locking contract in the header comment).
  struct Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> rejected{0};
  };
  mutable Counters counters_;
  std::atomic<obs::Journal*> journal_{nullptr};
};

/// Adapts the store's live counters into a MetricRegistry as derived
/// gauges under "<prefix>.": hits, misses, publishes, evictions,
/// rejected, the hit_rate quotient, and the residency gauges (entries,
/// ball_nodes).  The callbacks capture the shared_ptr, so they stay valid
/// even if the registry outlives every engine using the store; `owner`
/// tags the entries for MetricRegistry::remove_owned.
void register_ball_store_metrics(obs::MetricRegistry& registry,
                                 std::shared_ptr<BallStore> store,
                                 const std::string& prefix,
                                 const void* owner);

}  // namespace lcp

#endif  // LCP_CORE_BALL_STORE_HPP_
