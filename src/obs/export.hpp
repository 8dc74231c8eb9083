// Live metric export: Prometheus text exposition + sliding-window rates.
//
// MetricSnapshot (obs/metrics.hpp) is a point-in-time view; scrapers and
// dashboards want two renderings of it that this header provides:
//
//   - to_prometheus_text(): the snapshot in Prometheus text exposition
//     format (v0.0.4) — counters as counters, gauges as gauges, latency
//     histograms as summaries with quantile labels in seconds;
//   - RateSampler: a background (or manually driven) sampler that keeps a
//     bounded window of timestamped snapshots and derives sliding-window
//     rates from it — per-counter and per-monotone-gauge deltas/second
//     (applies/sec, repairs/sec, store publishes/sec) and per-histogram
//     p99 drift across the window.
//
// The sampler reads the registry only through snapshot() and deliberately
// registers NOTHING back into it: a derived gauge evaluated under the
// registry lock that called snapshot() again would self-deadlock (the
// locking contract in obs/metrics.hpp forbids re-entry).
#ifndef LCP_OBS_EXPORT_HPP_
#define LCP_OBS_EXPORT_HPP_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace lcp::obs {

/// Renders a snapshot in Prometheus text exposition format.  Metric names
/// are prefixed and sanitised ("store.ball.hit_rate" with prefix "lcp"
/// becomes "lcp_store_ball_hit_rate"); histograms are rendered as
/// summaries in seconds with a "_seconds" suffix, quantile labels for
/// p50/p90/p99, and the usual _sum/_count pair.
std::string to_prometheus_text(const MetricSnapshot& snapshot,
                               const std::string& prefix = "lcp");

struct RateSamplerOptions {
  /// Cadence of the background thread (ignored when driven manually).
  std::chrono::milliseconds interval{1000};
  /// Samples retained; rates span the oldest and newest retained sample,
  /// so the sliding window covers up to (window - 1) intervals.
  std::size_t window = 10;
  /// Spawn the sampling thread from the constructor.  Off by default:
  /// tests and short-lived tools drive sample_now() themselves.
  bool start_thread = false;
};

/// Derives sliding-window rates from periodic registry snapshots.
class RateSampler {
 public:
  struct Rate {
    std::string name;
    double per_sec = 0;  ///< delta / window seconds
  };
  struct Drift {
    std::string name;
    std::uint64_t p99_ns = 0;       ///< newest sample's p99
    std::uint64_t prev_p99_ns = 0;  ///< oldest sample's p99
    double drift_ns = 0;            ///< newest - oldest (signed)
  };
  struct Rates {
    double window_seconds = 0;  ///< 0 until two samples exist
    std::vector<Rate> counters;
    /// Monotone derived gauges (the Stats-struct adapters) get the same
    /// treatment; gauges that moved backwards are skipped (a true gauge,
    /// not a tally).
    std::vector<Rate> gauges;
    std::vector<Drift> histograms;  ///< per-phase p99 drift
  };

  /// The registry must outlive the sampler.
  explicit RateSampler(const MetricRegistry& registry,
                       RateSamplerOptions options = {});
  ~RateSampler();

  RateSampler(const RateSampler&) = delete;
  RateSampler& operator=(const RateSampler&) = delete;

  /// Takes one snapshot now (also what the background thread calls).
  void sample_now();

  /// Starts / stops the background thread (idempotent).
  void start();
  void stop();
  bool running() const;

  /// Rates across the current window; empty until two samples exist.
  Rates rates() const;

  /// The rate of one counter/gauge, 0 when unknown.
  double rate_of(const std::string& name) const;

  /// The rates as Prometheus gauges: "<prefix>_rate_<name>_per_sec" and
  /// "<prefix>_p99_drift_<name>_seconds".
  std::string to_prometheus_text(const std::string& prefix = "lcp") const;

  std::size_t sample_count() const;

 private:
  struct Sample {
    std::chrono::steady_clock::time_point at;
    MetricSnapshot snapshot;
  };

  void thread_main();

  const MetricRegistry* registry_;
  const RateSamplerOptions options_;

  mutable std::mutex mutex_;  // guards samples_
  std::deque<Sample> samples_;

  mutable std::mutex thread_mutex_;  // guards thread_ / stopping_
  std::condition_variable cv_;
  std::thread thread_;
  bool stopping_ = false;
};

}  // namespace lcp::obs

#endif  // LCP_OBS_EXPORT_HPP_
