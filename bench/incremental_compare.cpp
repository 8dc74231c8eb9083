// Incremental vs direct vs parallel on attack-loop workloads: a mutation
// loop flips a small fraction of labels (or churns edges) per iteration
// and re-verifies the whole graph.  Emits BENCH_incremental.json recording
// wall times and the incremental speedup (CI runs this in smoke mode).
//
//   usage: incremental_compare [n] [iterations] [out.json]
//
// Workloads:
//   proof-tamper:  n-cycle leader election; each iteration restores the
//                  previous tampers and corrupts ~0.5% of the proof labels
//                  (<= 1% of labels mutated per iteration).
//   edge-churn:    grid bipartiteness; each iteration removes a handful of
//                  edges and re-adds the previous iteration's removals.
//   edge-churn-r2: the same structural churn under a radius-2 verifier
//                  (13-node diamond balls): extraction dominates, the
//                  regime view patching targets.
//   edge-relabel-r2: label-only churn at radius 2 — every delta patches in
//                  place, the flagship for View::apply_delta.
//   exhaustive:    exists_accepted_proof on a small odd cycle (the
//                  odometer loop mutates 1-2 labels per candidate).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/checker.hpp"
#include "core/delta.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

struct LoopTiming {
  std::string name;
  int n = 0;
  int m = 0;
  int iterations = 0;
  double mutated_fraction = 0;  // labels mutated per iteration
  double direct_ms = -1;
  double parallel_ms = -1;
  double incremental_ms = -1;
  double incremental_nopatch_ms = -1;  // PR 3 config: re-extract dirty balls
  double incremental_noverify_ms = -1;
  // Nearest-rank percentiles of the incremental engine's per-iteration
  // wall time (mutate + dirty re-verify), in microseconds: the serving-
  // latency view the aggregate totals above hide.
  double incremental_iter_p50_us = 0;
  double incremental_iter_p90_us = 0;
  double incremental_iter_p99_us = 0;
  long long checksum_direct = -1;  // total rejecting nodes over the loop
};

/// Replays the same mutation loop against one engine.  Mutations go
/// through a DeltaTracker on fresh copies of (graph, proof); the checksum
/// (total rejecting nodes across iterations) must agree across engines.
/// When iter_us is non-null it receives each iteration's wall time.
template <typename MutateFn>
long long run_loop(ExecutionEngine& engine, const Graph& graph,
                   const Proof& proof, const LocalVerifier& verifier,
                   int iterations, int horizon, MutateFn&& mutate,
                   std::vector<double>* iter_us = nullptr) {
  Graph g = graph;
  Proof p = proof;
  DeltaTracker tracker(g, p, horizon);
  const TrackerAttachment attachment(engine, tracker);
  long long checksum = 0;
  (void)engine.run(g, p, verifier);  // identical warm-up for every engine
  for (int it = 0; it < iterations; ++it) {
    const auto iter_start = std::chrono::steady_clock::now();
    MutationBatch batch;
    mutate(it, g, p, batch);
    tracker.apply(batch);
    const RunResult r = engine.run(g, p, verifier);
    checksum += static_cast<long long>(r.rejecting.size());
    if (iter_us != nullptr) {
      const std::chrono::duration<double, std::micro> iter_elapsed =
          std::chrono::steady_clock::now() - iter_start;
      iter_us->push_back(iter_elapsed.count());
    }
  }
  return checksum;
}

template <typename MutateFn>
LoopTiming time_loop(const std::string& name, const Graph& graph,
                     const Proof& proof, const LocalVerifier& verifier,
                     int iterations, int horizon, double mutated_fraction,
                     MutateFn&& mutate) {
  LoopTiming t;
  t.name = name;
  t.n = graph.n();
  t.m = graph.m();
  t.iterations = iterations;
  t.mutated_fraction = mutated_fraction;

  auto timed = [&](ExecutionEngine& engine, bool is_reference,
                   std::vector<double>* iter_us = nullptr) {
    const auto start = std::chrono::steady_clock::now();
    const long long c = run_loop(engine, graph, proof, verifier, iterations,
                                 horizon, mutate, iter_us);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    if (is_reference) {
      t.checksum_direct = c;
      return elapsed.count();
    }
    return c == t.checksum_direct ? elapsed.count() : -1.0;
  };

  SweepEngine direct(1);
  t.direct_ms = timed(direct, /*is_reference=*/true);
  SweepEngine parallel(0);
  t.parallel_ms = timed(parallel, false);
  IncrementalEngine incremental;
  std::vector<double> iter_us;
  t.incremental_ms = timed(incremental, false, &iter_us);
  t.incremental_iter_p50_us = bench::percentile_of(iter_us, 0.50);
  t.incremental_iter_p90_us = bench::percentile_of(iter_us, 0.90);
  t.incremental_iter_p99_us = bench::percentile_of(iter_us, 0.99);
  IncrementalEngine nopatch({.patch_views = false});
  t.incremental_nopatch_ms = timed(nopatch, false);
  IncrementalEngine noverify({.verify_state = false});
  t.incremental_noverify_ms = timed(noverify, false);
  return t;
}

LoopTiming proof_tamper_workload(int n, int iterations) {
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::cycle(n);
  g.set_label(0, schemes::kLeaderFlag);
  const Proof honest = *scheme.prove(g);
  const int flips = std::max(1, n / 200);  // 0.5% of labels per iteration

  // Deterministic tamper schedule, identical for every engine: iteration
  // it clears `flips` labels and restores the previous iteration's.
  auto mutate = [honest, flips, n](int it, const Graph&, const Proof&,
                                   MutationBatch& batch) {
    std::mt19937 rng(static_cast<std::uint32_t>(it));
    std::uniform_int_distribution<int> node(0, n - 1);
    if (it > 0) {
      std::mt19937 prev_rng(static_cast<std::uint32_t>(it - 1));
      for (int i = 0; i < flips; ++i) {
        const int v = std::uniform_int_distribution<int>(0, n - 1)(prev_rng);
        batch.set_proof_label(
            v, honest.labels[static_cast<std::size_t>(v)]);
      }
    }
    for (int i = 0; i < flips; ++i) {
      batch.set_proof_label(node(rng), BitString{});
    }
  };
  return time_loop("attack-loop-proof-tamper", g, honest, scheme.verifier(),
                   iterations, scheme.verifier().radius(),
                   static_cast<double>(2 * flips) / n, mutate);
}

/// Shared churn schedule: iteration it removes `churn` pseudo-random
/// existing edges and re-adds the ones removed in iteration it-1.
auto make_churn_mutator(int churn) {
  auto pick = [](std::mt19937& rng, const Graph& host, int count,
                 std::vector<std::pair<int, int>>* out) {
    for (int i = 0; i < count && host.m() > 1; ++i) {
      std::uniform_int_distribution<int> edge(0, host.m() - 1);
      const int e = edge(rng);
      out->emplace_back(host.edge_u(e), host.edge_v(e));
    }
  };
  auto removed = std::make_shared<std::vector<std::pair<int, int>>>();
  return [pick, churn, removed](int it, const Graph& host, const Proof&,
                                MutationBatch& batch) {
    if (it == 0) removed->clear();  // the loop replays once per engine
    for (const auto& [u, v] : *removed) batch.add_edge(u, v);
    removed->clear();
    std::mt19937 rng(static_cast<std::uint32_t>(7919 * it + 13));
    std::vector<std::pair<int, int>> picks;
    pick(rng, host, churn, &picks);
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    for (const auto& [u, v] : picks) {
      batch.remove_edge(u, v);
      removed->emplace_back(u, v);
    }
  };
}

LoopTiming edge_churn_workload(int n, int iterations) {
  const schemes::BipartiteScheme scheme;
  const int side = std::max(3, static_cast<int>(std::lround(std::sqrt(n))));
  const Graph g = gen::grid(side, side);
  const Proof honest = *scheme.prove(g);
  const int churn = std::max(1, g.n() / 400);

  LoopTiming t = time_loop("attack-loop-edge-churn", g, honest,
                           scheme.verifier(), iterations,
                           scheme.verifier().radius(),
                           static_cast<double>(2 * churn) / g.n(),
                           make_churn_mutator(churn));
  return t;
}

/// Radius-2 views, O(deg) verdicts: 1-bit 2-colouring checked on the
/// centre's incident edges only.  Shared by both r2 workloads so they
/// measure the same predicate.
const LambdaVerifier& two_hop_bipartite_verifier() {
  static const LambdaVerifier verifier(2, [](const View& v) {
    const BitString& mine = v.proof_of(v.center);
    if (mine.size() != 1) return false;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      const BitString& other = v.proof_of(h.to);
      if (other.size() != 1 || other.bit(0) == mine.bit(0)) return false;
    }
    return true;
  });
  return verifier;
}

LoopTiming edge_relabel_r2_workload(int n, int iterations) {
  // Label churn under the radius-2 verifier: every iteration rewrites the
  // labels of ~0.5% of the edges (think weights/capacities flapping while
  // the topology holds still — the dominant churn in serving systems, and
  // exactly what MatchingMaintainer's matched-bit repairs look like).  An
  // edge relabel never moves any ball frontier, so the patched path
  // rewrites two words per containing view and re-verifies only views that
  // actually CONTAIN the edge, where the PR 3 path re-extracted every ball
  // containing either endpoint.  This is the patching flagship row.
  const schemes::BipartiteScheme scheme;
  const int side = std::max(3, static_cast<int>(std::lround(std::sqrt(n))));
  const Graph g = gen::grid(side, side);
  const Proof honest = *scheme.prove(g);
  const int churn = std::max(1, g.m() / 400);
  auto mutate = [churn](int it, const Graph& host, const Proof&,
                        MutationBatch& batch) {
    std::mt19937 rng(static_cast<std::uint32_t>(104729 * it + 31));
    for (int i = 0; i < churn; ++i) {
      std::uniform_int_distribution<int> edge(0, host.m() - 1);
      const int e = edge(rng);
      batch.set_edge_label(host.edge_u(e), host.edge_v(e), rng() % 2);
    }
  };
  const LambdaVerifier& two_hop = two_hop_bipartite_verifier();
  return time_loop("attack-loop-edge-relabel-r2", g, honest, two_hop,
                   iterations, two_hop.radius(),
                   static_cast<double>(2 * churn) / g.n(), mutate);
}

LoopTiming edge_churn_r2_workload(int n, int iterations) {
  // The same grid churn under a RADIUS-2 verifier: views are the 13-node
  // diamond balls, so extraction — not verdict evaluation — dominates the
  // dirty-ball path.  This is the regime view patching targets: interior
  // edges splice in place and only frontier-crossing changes re-extract.
  // (At radius 1 on a triangle-free grid every dirty ball IS an endpoint
  // ball whose membership changes, so there is nothing to patch — the r1
  // row above stays as the continuity baseline.)
  const schemes::BipartiteScheme scheme;
  const int side = std::max(3, static_cast<int>(std::lround(std::sqrt(n))));
  const Graph g = gen::grid(side, side);
  const Proof honest = *scheme.prove(g);
  const int churn = std::max(1, g.n() / 200);
  const LambdaVerifier& two_hop = two_hop_bipartite_verifier();
  return time_loop("attack-loop-edge-churn-r2", g, honest, two_hop,
                   iterations, two_hop.radius(),
                   static_cast<double>(2 * churn) / g.n(),
                   make_churn_mutator(churn));
}

double time_exhaustive(ExecutionEngine& engine, const Graph& g,
                       const LocalVerifier& verifier) {
  const auto start = std::chrono::steady_clock::now();
  const bool found = exists_accepted_proof(g, verifier, 1, engine);
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return found ? -1.0 : elapsed.count();  // odd cycle: must come up empty
}

LoopTiming exhaustive_workload() {
  // Odd cycle, 1-bit 2-colouring verifier: the full 3^n odometer runs dry.
  const int n = 11;
  const Graph g = gen::cycle(n);
  static const LambdaVerifier two_col(1, [](const View& v) {
    const BitString& mine = v.proof_of(v.center);
    if (mine.size() != 1) return false;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      const BitString& other = v.proof_of(h.to);
      if (other.size() != 1 || other.bit(0) == mine.bit(0)) return false;
    }
    return true;
  });
  LoopTiming t;
  t.name = "exhaustive-proof-search";
  t.n = n;
  t.m = g.m();
  t.iterations = 177147;  // 3^11 candidates
  t.mutated_fraction = 2.0 / n;
  SweepEngine direct(1);
  t.direct_ms = time_exhaustive(direct, g, two_col);
  SweepEngine parallel(0);
  t.parallel_ms = time_exhaustive(parallel, g, two_col);
  IncrementalEngine incremental;
  t.incremental_ms = time_exhaustive(incremental, g, two_col);
  IncrementalEngine nopatch({.patch_views = false});
  t.incremental_nopatch_ms = time_exhaustive(nopatch, g, two_col);
  IncrementalEngine noverify({.verify_state = false});
  t.incremental_noverify_ms = time_exhaustive(noverify, g, two_col);
  t.checksum_direct = 0;
  return t;
}

void print_json(std::FILE* out, const std::vector<LoopTiming>& rows) {
  bench::json_header(out, "bench/incremental_compare",
                     static_cast<int>(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LoopTiming& t = rows[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"n\": %d, \"m\": %d, \"iterations\": %d,\n"
        "     \"mutated_fraction_per_iteration\": %.4f,\n"
        "     \"timings_ms\": {\"direct\": %.3f, "
        "\"parallel\": %.3f, \"incremental\": %.3f, "
        "\"incremental_nopatch\": %.3f, "
        "\"incremental_noverify\": %.3f},\n",
        t.name.c_str(), t.n, t.m, t.iterations, t.mutated_fraction,
        t.direct_ms, t.parallel_ms, t.incremental_ms,
        t.incremental_nopatch_ms, t.incremental_noverify_ms);
    std::fprintf(
        out,
        "     \"speedup_vs_direct\": {"
        "\"parallel\": %.2f, \"incremental\": %.2f, "
        "\"incremental_nopatch\": %.2f, "
        "\"incremental_noverify\": %.2f},\n"
        "     \"incremental_iter_us\": {\"p50\": %.1f, \"p90\": %.1f, "
        "\"p99\": %.1f},\n"
        "     \"patching_speedup\": %.2f}%s\n",
        t.direct_ms / t.parallel_ms, t.direct_ms / t.incremental_ms,
        t.direct_ms / t.incremental_nopatch_ms,
        t.direct_ms / t.incremental_noverify_ms,
        t.incremental_iter_p50_us, t.incremental_iter_p90_us,
        t.incremental_iter_p99_us,
        t.incremental_nopatch_ms / t.incremental_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace
}  // namespace lcp

int main(int argc, char** argv) {
  using namespace lcp;
  const int n = argc > 1 ? std::atoi(argv[1]) : 10000;
  const int iterations = argc > 2 ? std::atoi(argv[2]) : 40;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_incremental.json";

  std::vector<LoopTiming> rows;
  rows.push_back(proof_tamper_workload(n, iterations));
  rows.push_back(edge_churn_workload(n, iterations));
  rows.push_back(edge_churn_r2_workload(n, iterations));
  rows.push_back(edge_relabel_r2_workload(n, iterations));
  rows.push_back(exhaustive_workload());

  std::printf("%-26s %8s %6s | %10s %10s %10s %10s %10s\n", "workload", "n",
              "iters", "direct", "parallel", "increm", "nopatch", "noverify");
  for (const LoopTiming& t : rows) {
    std::printf("%-26s %8d %6d | %8.1fms %8.1fms %8.1fms %8.1fms %8.1fms\n",
                t.name.c_str(), t.n, t.iterations, t.direct_ms,
                t.parallel_ms, t.incremental_ms, t.incremental_nopatch_ms,
                t.incremental_noverify_ms);
    std::printf("%-26s speedup vs direct: parallel %.2fx, "
                "incremental %.2fx (nopatch %.2fx, noverify %.2fx); "
                "patching %.2fx over nopatch; iter p50/p99 %.0f/%.0fus\n",
                "", t.direct_ms / t.parallel_ms,
                t.direct_ms / t.incremental_ms,
                t.direct_ms / t.incremental_nopatch_ms,
                t.direct_ms / t.incremental_noverify_ms,
                t.incremental_nopatch_ms / t.incremental_ms,
                t.incremental_iter_p50_us, t.incremental_iter_p99_us);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  print_json(out, rows);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Negative timings mean an engine disagreed with the direct checksum.
  for (const LoopTiming& t : rows) {
    if (t.direct_ms < 0 || t.parallel_ms < 0 ||
        t.incremental_ms < 0 || t.incremental_nopatch_ms < 0 ||
        t.incremental_noverify_ms < 0) {
      std::fprintf(stderr, "verdict mismatch in workload %s\n",
                   t.name.c_str());
      return 1;
    }
  }
  return 0;
}
