// Engine wall-time comparison: the seed's sequential execution path versus
// the ExecutionEngine backends, at a configurable node count (default
// n = 10000).  Emits BENCH_engines.json so the perf trajectory is recorded
// run over run (CI runs this in smoke mode on every push).
//
//   usage: engines_compare [n] [reps] [out.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "local/message_passing.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

/// Per-backend repetition timings: the best (the historical headline
/// number) plus nearest-rank percentiles over the reps, so the JSON
/// records run-to-run spread and not just the lucky rep.
struct RepTiming {
  double best_ms = -1;
  double p50_ms = -1;
  double p99_ms = -1;
};

RepTiming time_reps(int reps, const std::function<bool()>& body) {
  RepTiming t;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    if (!body()) return RepTiming{};  // verdict mismatch guard
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    samples.push_back(elapsed.count());
  }
  t.best_ms = *std::min_element(samples.begin(), samples.end());
  t.p50_ms = bench::percentile_of(samples, 0.50);
  t.p99_ms = bench::percentile_of(samples, 0.99);
  return t;
}

struct WorkloadTiming {
  std::string name;
  int n = 0;
  int m = 0;
  int radius = 0;
  RepTiming seed;
  RepTiming direct;           // one-thread SweepEngine
  RepTiming parallel;         // SweepEngine on every hardware thread
  RepTiming message_passing;  // only timed on small instances
};

WorkloadTiming time_workload(const std::string& name, const Graph& g,
                             const Proof& proof, const LocalVerifier& a,
                             int reps) {
  WorkloadTiming t;
  t.name = name;
  t.n = g.n();
  t.m = g.m();
  t.radius = a.radius();

  const RunResult expected = bench::seed_run_verifier(g, proof, a);
  auto agrees = [&](const RunResult& r) {
    return r.all_accept == expected.all_accept &&
           r.rejecting == expected.rejecting;
  };

  t.seed =
      time_reps(reps, [&] { return agrees(bench::seed_run_verifier(g, proof, a)); });

  SweepEngine direct(1);
  t.direct = time_reps(reps, [&] { return agrees(direct.run(g, proof, a)); });

  SweepEngine parallel(0);
  (void)parallel.run(g, proof, a);  // create the pool outside the timing
  t.parallel =
      time_reps(reps, [&] { return agrees(parallel.run(g, proof, a)); });

  if (g.n() <= 512) {
    MessagePassingEngine flooding;
    t.message_passing =
        time_reps(reps, [&] { return agrees(flooding.run(g, proof, a)); });
  }
  return t;
}

void print_json(std::FILE* out, const std::vector<WorkloadTiming>& rows) {
  // The parallel rows shard across every hardware thread (SweepEngine(0)),
  // so that is the fan-out this file's numbers were taken at.
  bench::json_header(out, "bench/engines_compare",
                     static_cast<int>(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const WorkloadTiming& t = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"n\": %d, \"m\": %d, \"radius\": "
                 "%d,\n     \"timings_ms\": {\"seed_sequential\": %.3f, "
                 "\"direct\": %.3f, \"parallel\": %.3f, "
                 "\"message_passing\": %.3f},\n",
                 t.name.c_str(), t.n, t.m, t.radius, t.seed.best_ms,
                 t.direct.best_ms, t.parallel.best_ms,
                 t.message_passing.best_ms);
    std::fprintf(out,
                 "     \"p50_ms\": {\"seed_sequential\": %.3f, \"direct\": "
                 "%.3f, \"parallel\": %.3f},\n"
                 "     \"p99_ms\": {\"seed_sequential\": %.3f, \"direct\": "
                 "%.3f, \"parallel\": %.3f},\n",
                 t.seed.p50_ms, t.direct.p50_ms, t.parallel.p50_ms,
                 t.seed.p99_ms, t.direct.p99_ms, t.parallel.p99_ms);
    std::fprintf(out,
                 "     \"speedup_vs_seed\": {\"direct\": %.2f, "
                 "\"parallel\": %.2f}}%s\n",
                 t.seed.best_ms / t.direct.best_ms,
                 t.seed.best_ms / t.parallel.best_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace
}  // namespace lcp

int main(int argc, char** argv) {
  using namespace lcp;
  const int n = argc > 1 ? std::atoi(argv[1]) : 10000;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_engines.json";

  std::vector<WorkloadTiming> rows;

  {
    const int side = std::max(2, static_cast<int>(std::lround(std::sqrt(n))));
    const schemes::BipartiteScheme scheme;
    const Graph g = gen::grid(side, side);
    const Proof proof = *scheme.prove(g);
    rows.push_back(time_workload("grid-bipartite", g, proof,
                                 scheme.verifier(), reps));
  }
  {
    const int len = std::max(4, n - n % 2);  // even => bipartite yes-instance
    const schemes::BipartiteScheme scheme;
    const Graph g = gen::cycle(len);
    const Proof proof = *scheme.prove(g);
    rows.push_back(time_workload("cycle-bipartite", g, proof,
                                 scheme.verifier(), reps));
  }
  {
    const int len = std::max(4, n);
    const schemes::LeaderElectionScheme scheme;
    Graph g = gen::cycle(len);
    g.set_label(0, schemes::kLeaderFlag);
    const Proof proof = *scheme.prove(g);
    rows.push_back(time_workload("cycle-leader-election", g, proof,
                                 scheme.verifier(), reps));
  }

  std::printf("%-24s %8s %8s | %12s %12s %12s\n", "workload", "n", "m",
              "seed ms", "direct ms", "pool ms");
  for (const WorkloadTiming& t : rows) {
    std::printf("%-24s %8d %8d | %12.3f %12.3f %12.3f\n", t.name.c_str(),
                t.n, t.m, t.seed.best_ms, t.direct.best_ms,
                t.parallel.best_ms);
    std::printf("%-24s speedups vs seed: direct %.2fx, parallel %.2fx; "
                "parallel p50/p99 %.3f/%.3fms\n",
                "", t.seed.best_ms / t.direct.best_ms,
                t.seed.best_ms / t.parallel.best_ms, t.parallel.p50_ms,
                t.parallel.p99_ms);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  print_json(out, rows);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Any timing of -1 means a backend disagreed with the seed semantics.
  for (const WorkloadTiming& t : rows) {
    if (t.seed.best_ms < 0 || t.direct.best_ms < 0 ||
        t.parallel.best_ms < 0) {
      std::fprintf(stderr, "verdict mismatch in workload %s\n",
                   t.name.c_str());
      return 1;
    }
  }
  return 0;
}
