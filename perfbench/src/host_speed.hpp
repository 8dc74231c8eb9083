// How fast the host runs ordinary code right now, from a fixed reference
// computation that belongs to the benchmark (not to the library), so that
// a change to the library never changes it.
//
// On a shared virtual machine the same work takes different CPU time from
// one stretch of seconds to the next: identical structural-churn episodes
// of one run measured 1.45-2.22 ms per batch on one 4-vCPU x86 guest,
// with no time stolen (CPU time equalled wall time), so the host ran the
// code itself slower (frequency, a busy sibling core, shared caches).
// The reference, sampled between the measured calls, slows down with it:
// per episode, batch time / reference time stayed within about +-6% while
// batch time moved +-18%.  A library figure is reported as measured time
// x (kNominalMs / reference time over the same stretch), i.e. in
// milliseconds of a host that runs the reference in kNominalMs; the raw
// figure and the factor are printed on the notes line.
#ifndef PERFBENCH_HOST_SPEED_HPP_
#define PERFBENCH_HOST_SPEED_HPP_

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

class HostSpeed {
 public:
  /// The reference's CPU time on the machine the bounds were tuned on.
  static constexpr double kNominalMs = 1.5;

  HostSpeed() {
    std::mt19937 rng(12345);
    constexpr int kNodes = 4000;
    adjacency_.resize(kNodes);
    for (int v = 0; v < kNodes; ++v) {
      for (int j = 0; j < 3; ++j) {
        const int u = static_cast<int>(rng() % kNodes);
        adjacency_[static_cast<std::size_t>(v)].push_back(u);
        adjacency_[static_cast<std::size_t>(u)].push_back(v);
      }
    }
    for (int i = 0; i < 3000; ++i) keys_.push_back(rng());
  }

  /// Runs the reference twice (the first warms the caches the measured
  /// calls left cold) and records the calling thread's CPU time for the
  /// second, which it returns.
  double sample() {
    run();
    const double t0 = thread_cpu_ms();
    run();
    samples_.push_back(thread_cpu_ms() - t0);
    return samples_.back();
  }

  /// kNominalMs / the median reference time since the last reset(); 1
  /// before any sample.  Multiply a time by it, divide a rate.
  double factor() const {
    return samples_.empty() ? 1.0 : kNominalMs / median(samples_);
  }
  void reset() { samples_.clear(); }

 private:
  static double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }

  /// Graph search, hashing, sorting and allocation, as in the library.
  void run() {
    std::uint64_t acc = 0;
    std::vector<int> dist(adjacency_.size());
    std::vector<int> queue;
    for (int source = 0; source < 6; ++source) {
      std::fill(dist.begin(), dist.end(), -1);
      queue.assign(1, source);
      dist[static_cast<std::size_t>(source)] = 0;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const int v = queue[head];
        for (const int u : adjacency_[static_cast<std::size_t>(v)]) {
          if (dist[static_cast<std::size_t>(u)] >= 0) continue;
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(v)] + 1;
          queue.push_back(u);
        }
      }
      acc += queue.size();
    }
    std::unordered_map<std::uint64_t, int> counts;
    for (const std::uint64_t k : keys_) counts[k] += 1;
    for (const std::uint64_t k : keys_) acc += counts[k ^ 1] + counts[k];
    std::vector<std::uint64_t> sorted(keys_);
    std::sort(sorted.begin(), sorted.end());
    acc += sorted[17];
    sink_ = acc;
  }

  std::vector<std::vector<int>> adjacency_;
  std::vector<std::uint64_t> keys_;
  std::vector<double> samples_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_HPP_
