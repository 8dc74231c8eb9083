// A persistent worker pool shared by the engines that shard work.
//
// SweepEngine's node ranges and IncrementalEngine's dirty-ball
// re-verification both run on it, so the synchronisation lives in one
// place.  The pool is deliberately minimal: dispatch(active, job) runs
// job(w) on workers [0, active) and blocks until every one finishes,
// rethrowing the first worker exception in the caller's thread.  Workers
// are created once and parked on a condition variable between dispatches,
// so repeated small dispatches don't pay thread spawn cost.
//
// Each lane keeps a relaxed-atomic busy-time tally (nanoseconds spent
// inside jobs) and the pool counts dispatches, so telemetry can expose
// per-lane utilisation (register_metrics) without touching the dispatch
// synchronisation.
#ifndef LCP_CORE_WORKER_POOL_HPP_
#define LCP_CORE_WORKER_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lcp {

namespace obs {
class MetricRegistry;
}  // namespace obs

class WorkerPool {
 public:
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs job(w) on workers [0, active) and blocks until all complete.
  /// Not re-entrant: one dispatch at a time per pool — neither recursive
  /// (a job calling back into its own pool) nor concurrent (two threads
  /// sharing one pool must serialise externally, as the session server's
  /// single coordinator does).  Debug builds assert on violations.
  void dispatch(int active, const std::function<void(int)>& job);

  int size() const { return static_cast<int>(threads_.size()); }

  /// Cumulative dispatch() calls (relaxed; readable from any thread).
  std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }
  /// Nanoseconds lane `w` has spent running jobs since construction.
  std::uint64_t lane_busy_ns(int w) const {
    return lane_busy_ns_[static_cast<std::size_t>(w)].load(
        std::memory_order_relaxed);
  }

  /// Registers "<prefix>.dispatches", "<prefix>.lanes", and one
  /// "<prefix>.lane<k>.busy_us" per lane as derived gauges reading the
  /// live counters.  Entries are tagged with `owner` (normally the engine
  /// that owns this pool); call registry.remove_owned(owner) before the
  /// pool dies if the registry outlives it.
  void register_metrics(obs::MetricRegistry& registry,
                        const std::string& prefix, const void* owner) const;

 private:
  void worker_loop(int w);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* job_ = nullptr;
  std::vector<std::exception_ptr> job_errors_;
  int active_workers_ = 0;
  int remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  // Telemetry tallies; array-allocated because atomics don't move.
  std::unique_ptr<std::atomic<std::uint64_t>[]> lane_busy_ns_;
  std::atomic<std::uint64_t> dispatches_{0};
  // Re-entrancy detection: the flag is maintained in all builds (layout
  // and behaviour don't depend on NDEBUG); only the assert on it
  // compiles away in release.
  std::atomic<bool> in_dispatch_{false};
};

}  // namespace lcp

#endif  // LCP_CORE_WORKER_POOL_HPP_
