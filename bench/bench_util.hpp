// Shared table-printing and measurement helpers for the reproduction
// benches (not part of the library API).
#ifndef LCP_BENCH_BENCH_UTIL_HPP_
#define LCP_BENCH_BENCH_UTIL_HPP_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/growth.hpp"
#include "core/runner.hpp"
#include "core/scheme.hpp"
#include "graph/subgraph.hpp"

namespace lcp::bench {

// ---------------------------------------------------------------------------
// The seed's sequential execution path, preserved verbatim as the perf
// baseline the engine benchmarks measure against: per node, a ball walk,
// an induced-subgraph scan over every host edge, and a second BFS on the
// extracted ball.  Do not optimise this.
// ---------------------------------------------------------------------------

inline View seed_extract_view(const Graph& g, const Proof& p, int v,
                              int radius) {
  View view;
  view.radius = radius;
  const std::vector<int> nodes = ball_nodes(g, v, radius);
  view.ball = induced_subgraph(g, nodes);
  view.center = 0;
  view.proofs.reserve(nodes.size());
  for (int u : nodes) {
    view.proofs.push_back(p.labels[static_cast<std::size_t>(u)]);
  }
  view.dist = bfs_distances(view.ball, view.center);
  return view;
}

inline RunResult seed_run_verifier(const Graph& g, const Proof& p,
                                   const LocalVerifier& a) {
  RunResult result;
  for (int v = 0; v < g.n(); ++v) {
    const View view = seed_extract_view(g, p, v, a.radius());
    if (!a.accept(view)) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

/// The compiler that produced this binary, for the bench JSON headers.
inline const char* compiler_id() {
#if defined(__clang_version__)
  return "clang " __clang_version__;
#elif defined(__GNUC__) && defined(__VERSION__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Whether a sanitizer is baked into the build: perf numbers from such a
/// binary are not comparable and the JSON says so.
inline bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Opens a BENCH_*.json object with the provenance fields every bench
/// must record: the generating tool, the exact source revision (git
/// describe + commit, baked in at configure time), build type and
/// compiler, the machine's real hardware thread count, and the widest
/// shard/worker fan-out the run used (0 when the bench is
/// single-threaded).  Callers append their own "workloads" array and
/// close the object.
inline void json_header(std::FILE* out, const char* generated_by,
                        int shards = 0) {
#if !defined(LCP_GIT_DESCRIBE)
#define LCP_GIT_DESCRIBE ""
#endif
#if !defined(LCP_GIT_COMMIT)
#define LCP_GIT_COMMIT ""
#endif
#if !defined(LCP_BUILD_TYPE)
#define LCP_BUILD_TYPE ""
#endif
  std::fprintf(out, "{\n  \"generated_by\": \"%s\",\n", generated_by);
  std::fprintf(out, "  \"git_describe\": \"%s\",\n", LCP_GIT_DESCRIBE);
  std::fprintf(out, "  \"git_commit\": \"%s\",\n", LCP_GIT_COMMIT);
  std::fprintf(out, "  \"build_type\": \"%s\",\n", LCP_BUILD_TYPE);
  std::fprintf(out, "  \"compiler\": \"%s\",\n", compiler_id());
  std::fprintf(out, "  \"sanitized\": %s,\n",
               sanitized_build() ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"shards\": %d,\n", shards);
}

/// Nearest-rank percentile of a latency sample (µs or any unit); sorts a
/// copy, so fine for bench-sized vectors.  q in [0,1].
inline double percentile_of(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline void rule(char c = '-', int width = 98) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void heading(const std::string& title) {
  rule('=');
  std::printf("%s\n", title.c_str());
  rule('=');
}

/// Measures the proof size the scheme emits on each instance; verifies the
/// proof is accepted (completeness check rides along).  Returns (x, bits)
/// samples where x is the caller-provided sweep parameter.
struct SizeSample {
  double x = 0;
  int bits = 0;
  bool complete = false;
};

inline SizeSample measure(const Scheme& scheme, const Graph& g, double x,
                          ExecutionEngine& engine = default_engine()) {
  SizeSample s;
  s.x = x;
  const auto proof = scheme.prove(g);
  if (!proof.has_value()) return s;
  s.bits = proof->size_bits();
  s.complete = engine.run(g, *proof, scheme.verifier()).all_accept;
  return s;
}

/// Rows (or harness checks) that came out other than OK so far in this
/// process.
inline int& failed_rows() {
  static int count = 0;
  return count;
}

/// The reproduction harnesses' exit status: 0 when every row or check
/// came out OK, else 1 with the count on stderr, so a broken reproduction
/// fails CI.
inline int table_exit_status() {
  if (failed_rows() == 0) return 0;
  std::fprintf(stderr, "%d row(s) or check(s) not OK\n", failed_rows());
  return 1;
}

/// Prints one classification row: measured sizes along the sweep, the
/// fitted growth class, the paper's bound, and the verdict.  A row that
/// is not OK is counted in failed_rows().
inline void print_row(const std::string& property, const std::string& family,
                      const std::string& paper_bound,
                      const std::vector<SizeSample>& samples,
                      GrowthClass expected) {
  std::vector<std::pair<double, double>> points;
  bool complete = true;
  std::string sizes;
  for (const SizeSample& s : samples) {
    points.emplace_back(s.x, static_cast<double>(s.bits));
    complete = complete && s.complete;
    if (!sizes.empty()) sizes += ' ';
    sizes += std::to_string(s.bits);
  }
  const GrowthClass fitted = classify_growth(points);
  const bool match = fitted == expected;
  if (!complete || !match) ++failed_rows();
  std::printf("%-28s %-12s %-14s %-24s %-13s %s\n", property.c_str(),
              family.c_str(), paper_bound.c_str(), sizes.c_str(),
              to_string(fitted).c_str(),
              complete ? (match ? "OK" : "SHAPE-MISMATCH")
                       : "INCOMPLETE");
}

inline void print_header() {
  std::printf("%-28s %-12s %-14s %-24s %-13s %s\n", "property/problem",
              "family", "paper", "bits at sweep points", "fitted", "verdict");
  rule();
}

}  // namespace lcp::bench

#endif  // LCP_BENCH_BENCH_UTIL_HPP_
