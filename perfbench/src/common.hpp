// Shared pieces of the perfbench binary: run options, exact sample
// statistics, the result line, and process memory.
//
// Every percentile here is computed from the benchmark's own recorded
// samples (never from obs::LatencyHistogram, whose power-of-two buckets
// resolve only within 2x), and is printed beside its sample count.
#ifndef PERFBENCH_COMMON_HPP_
#define PERFBENCH_COMMON_HPP_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time used so far by all threads of this process, in ms.  The
/// library workloads time their calls on this clock: the calls run on the
/// calling thread alone, so it reads their wall time less the time the
/// CPU was taken away (by the guest's scheduler or, on a virtual machine
/// with steal-time accounting, by the host), which is what made wall-clock
/// figures of identical runs on a shared host spread by 20-40%.  Work a
/// call hands to other threads of the process still counts.
inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small graphs and short phases: the self-check mode, not a measurement.
  bool smoke = false;
  /// Directory (inside the checkout) where traced runs write their spans.
  std::string out_dir = ".bench_out";
};

/// Nearest-rank percentile over exact samples; q in [0, 100].
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// The result of one run: what the last stdout line reports.
struct Result {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context printed on the line before the result: sample counts,
  /// checksums, the ledger.
  std::vector<std::pair<std::string, std::string>> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  void note(std::string key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    note(std::move(key), std::string(buf));
  }
  /// Records a failed correctness check: the run reports correct=false.
  void fail(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

/// A per-layer metric by name and unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Reports, as 0, the layer metrics of layers this workload does not run
/// (the server's on library workloads and the reverse), so that a traced
/// run prints every per-layer metric.  Each workload lists only those; a
/// metric it forgets for a layer it does run stays missing and fails the
/// smoke check.
template <std::size_t N>
void add_layers_not_run(Result& r, const LayerMetric (&metrics)[N]) {
  for (const LayerMetric& m : metrics) r.add(m.name, 0, m.unit);
}

/// Peak resident set of this process, in MiB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The latency metrics of one run's samples (ms): `p50` is an end-to-end
/// gate; the exact nearest-rank p99 spreads too much run to run on a
/// shared host to be one, so traced runs report it as a layer number.
inline void add_latency_metrics(Result& r, const std::vector<double>& ms,
                                double p50, bool traced) {
  if (traced) {
    r.add("latency_p99_ms", percentile(ms, 99), "ms");
  } else {
    r.add("latency_p50_ms", p50, "ms");
  }
  r.note("latency_samples", static_cast<double>(ms.size()));
  r.note("latency_p99_samples_beyond",
         std::floor(static_cast<double>(ms.size()) * 0.01));
}

/// hash_combine-style mixing for verdict checksums.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP_
