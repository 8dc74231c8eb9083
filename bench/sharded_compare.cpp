// Sharded-engine scaling: k-vs-time across shard counts at n = 10^5..10^6,
// plus delta-driven churn rows that make the halo economics visible.
//
//   sweep:    cold full rebuild (partition + halo exchange + extraction +
//             verify) and a warm re-verify, for k = 1, 2, 4, 8 on registry
//             schemes over large instances; every verdict set is checked
//             against sweep_sequential.
//   interior: a mutation stream confined to stripe interiors — each batch
//             toggles edges and proof labels well inside every shard's
//             owned range, so no halo is ever re-exchanged and each lane
//             only re-verifies its own dirty balls.  This is the row where
//             k = 8 must beat k = 1 (the acceptance bar for sharding).
//   cross:    the preferential-attachment churn stream (churn_stream.hpp):
//             growth plus transient edges between arbitrary endpoints, so
//             batches straddle shard boundaries and halo re-exchanges,
//             ghost proof patches, and per-shard dirty sets all show up.
//
// Output: BENCH_sharded.json.  Exits 1 when any engine disagrees with the
// reference (or between shard counts on the churn trajectories).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "churn_stream.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/sharded_engine.hpp"
#include "graph/generators.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::uint64_t fold(std::uint64_t h, const RunResult& r) {
  h ^= r.all_accept ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull;
  h *= 0x100000001b3ull;
  for (int v : r.rejecting) {
    h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ull;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct SweepRow {
  std::string scheme;
  int n = 0;
  int m = 0;
  int k = 0;
  double build_ms = 0;
  double warm_ms = 0;
  bool agree = false;
};

struct ChurnRow {
  std::string name;
  int n = 0;
  int k = 0;
  int iterations = 0;
  double total_ms = 0;
  // Nearest-rank percentiles of per-iteration wall time (mutate + halo +
  // dirty lanes), in microseconds.
  double iter_p50_us = 0;
  double iter_p90_us = 0;
  double iter_p99_us = 0;
  std::uint64_t checksum = 0;
  std::uint64_t halo_records = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t proof_patches = 0;
  std::uint64_t shards_woken = 0;
  std::uint64_t reextractions = 0;
  std::vector<std::size_t> last_dirty;
};

// ---------------------------------------------------------------------------
// Full-sweep scaling.
// ---------------------------------------------------------------------------

void sweep_workload(const std::string& scheme_name, const Graph& g,
                    const Proof& p, const Scheme& scheme,
                    std::vector<SweepRow>* rows, bool* ok) {
  const RunResult want = sweep_sequential(g, p, scheme.verifier());
  for (int k : {1, 2, 4, 8}) {
    ShardedEngineOptions options;
    options.shards = k;
    options.verify_state = false;
    ShardedEngine engine(options);
    SweepRow row;
    row.scheme = scheme_name;
    row.n = g.n();
    row.m = g.m();
    row.k = k;
    auto t0 = std::chrono::steady_clock::now();
    const RunResult cold = engine.run(g, p, scheme.verifier());
    row.build_ms = ms_since(t0);
    t0 = std::chrono::steady_clock::now();
    const RunResult warm = engine.run(g, p, scheme.verifier());
    row.warm_ms = ms_since(t0);
    row.agree = fold(0, cold) == fold(0, want) &&
                fold(0, warm) == fold(0, want);
    if (!row.agree) {
      std::fprintf(stderr, "sweep mismatch: %s k=%d n=%d\n",
                   scheme_name.c_str(), k, g.n());
      *ok = false;
    }
    std::printf("  %-16s n=%-8d k=%d  build %8.1f ms  warm %7.2f ms\n",
                scheme_name.c_str(), g.n(), k, row.build_ms, row.warm_ms);
    rows->push_back(std::move(row));
  }
}

// ---------------------------------------------------------------------------
// Churn rows: one deterministic batch stream replayed per shard count.
// ---------------------------------------------------------------------------

using BatchFn =
    std::function<void(int it, const Graph& g, MutationBatch* batch)>;

ChurnRow churn_run(const std::string& name, const Graph& start,
                   const Proof& start_proof, const Scheme& scheme, int k,
                   int iterations, const BatchFn& next) {
  Graph g = start;
  Proof p = start_proof;
  DeltaTracker tracker(g, p, scheme.verifier().radius());
  ShardedEngineOptions options;
  options.shards = k;
  options.verify_state = false;  // the tracker owns the mutation channel
  // Keep every ball cached even at n = 10^6: overflowing the budget would
  // silently degrade the run into permanent serial full sweeps.
  options.max_cached_ball_nodes = std::size_t(1) << 25;
  ShardedEngine engine(options);
  engine.attach_tracker(&tracker);

  ChurnRow row;
  row.name = name;
  row.n = start.n();
  row.k = k;
  row.iterations = iterations;
  (void)engine.run(g, p, scheme.verifier());  // build shards + halos
  const TransportStats build_traffic = engine.transport().stats();
  const std::uint64_t build_reextract = engine.stats().reextractions;

  const auto t0 = std::chrono::steady_clock::now();
  MutationBatch batch;
  std::vector<double> iter_us;
  iter_us.reserve(static_cast<std::size_t>(iterations));
  for (int it = 0; it < iterations; ++it) {
    const auto iter_start = std::chrono::steady_clock::now();
    batch.clear();
    next(it, g, &batch);
    if (batch.empty()) continue;
    tracker.apply(batch);
    row.checksum = fold(row.checksum, engine.run(g, p, scheme.verifier()));
    iter_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - iter_start)
                          .count());
  }
  row.total_ms = ms_since(t0);
  row.iter_p50_us = bench::percentile_of(iter_us, 0.50);
  row.iter_p90_us = bench::percentile_of(iter_us, 0.90);
  row.iter_p99_us = bench::percentile_of(iter_us, 0.99);

  const TransportStats traffic = engine.transport().stats();
  row.halo_records = traffic.records - build_traffic.records;
  row.halo_bytes = traffic.bytes - build_traffic.bytes;
  row.proof_patches = traffic.proof_patches - build_traffic.proof_patches;
  row.shards_woken = engine.stats().shards_woken;
  row.reextractions = engine.stats().reextractions - build_reextract;
  row.last_dirty = engine.stats().last_dirty_per_shard;
  engine.attach_tracker(nullptr);
  std::printf("  %-16s k=%d  %8.1f ms  iter p50/p99 %6.0f/%6.0f us  "
              "halo records %-8llu woken %llu\n",
              name.c_str(), k, row.total_ms, row.iter_p50_us, row.iter_p99_us,
              static_cast<unsigned long long>(row.halo_records),
              static_cast<unsigned long long>(row.shards_woken));
  return row;
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

void print_json(std::FILE* out, const std::vector<SweepRow>& sweep,
                const std::vector<ChurnRow>& churn) {
  bench::json_header(out, "bench/sharded_compare", /*shards=*/8);
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::fprintf(out,
                 "    {\"scheme\": \"%s\", \"n\": %d, \"m\": %d, "
                 "\"shards\": %d, \"build_ms\": %.3f, \"warm_ms\": %.3f, "
                 "\"agrees_with_direct\": %s}%s\n",
                 r.scheme.c_str(), r.n, r.m, r.k, r.build_ms, r.warm_ms,
                 r.agree ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"churn\": [\n");
  for (std::size_t i = 0; i < churn.size(); ++i) {
    const ChurnRow& r = churn[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"n\": %d, \"shards\": %d, "
                 "\"iterations\": %d, \"total_ms\": %.3f,\n"
                 "     \"iter_us\": {\"p50\": %.1f, \"p90\": %.1f, "
                 "\"p99\": %.1f},\n"
                 "     \"halo_records\": %llu, \"halo_bytes\": %llu, "
                 "\"ghost_proof_patches\": %llu, \"shards_woken\": %llu, "
                 "\"reextractions\": %llu,\n     \"last_dirty_per_shard\": [",
                 r.name.c_str(), r.n, r.k, r.iterations, r.total_ms,
                 r.iter_p50_us, r.iter_p90_us, r.iter_p99_us,
                 static_cast<unsigned long long>(r.halo_records),
                 static_cast<unsigned long long>(r.halo_bytes),
                 static_cast<unsigned long long>(r.proof_patches),
                 static_cast<unsigned long long>(r.shards_woken),
                 static_cast<unsigned long long>(r.reextractions));
    for (std::size_t s = 0; s < r.last_dirty.size(); ++s) {
      std::fprintf(out, "%s%zu", s > 0 ? ", " : "", r.last_dirty[s]);
    }
    std::fprintf(out, "]}%s\n", i + 1 < churn.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace
}  // namespace lcp

int main(int argc, char** argv) {
  using namespace lcp;
  const int n = argc > 1 ? std::atoi(argv[1]) : 200000;
  const int iterations = argc > 2 ? std::atoi(argv[2]) : 60;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_sharded.json";
  bool ok = true;

  // A grid sized to ~n: bipartite (honest proofs exist at any size) and
  // row-major, so RangePartitioner stripes are clean row bands.
  const int cols = 500;
  const int rows_n = std::max(8, n / cols);
  Graph grid = gen::grid(rows_n, cols);

  const auto registry_scheme = [&](const char* name) {
    return builtin_registry().build(name);
  };

  std::vector<SweepRow> sweep;
  std::printf("full-sweep scaling (n=%d)\n", grid.n());
  {
    const auto scheme = registry_scheme("bipartite");
    const Proof p = *scheme->prove(grid);
    sweep_workload("bipartite", grid, p, *scheme, &sweep, &ok);
  }
  {
    // Leader election exercises distance certificates on an irregular
    // sparse instance (tree + chords), still at full n.
    Graph conn = gen::random_sparse_connected(grid.n(), grid.n() / 4, 11);
    conn.set_label(conn.n() / 2, schemes::kLeaderFlag);
    const auto scheme = registry_scheme("leader-election");
    const auto p = scheme->prove(conn);
    if (p.has_value()) {
      sweep_workload("leader-election", conn, *p, *scheme, &sweep, &ok);
    }
  }

  std::vector<ChurnRow> churn;

  // Interior-dominated churn: per iteration, every stripe toggles a few
  // edges and flips a few proof labels strictly inside its own row band —
  // no epicentre is ever within r of a stripe boundary, so halos stay
  // quiet and lanes work independently.
  {
    const auto scheme = registry_scheme("bipartite");
    const Proof p = *scheme->prove(grid);
    const int stripes = 8;
    const int band_rows = rows_n / stripes;
    // Enough per-lane work per batch that the shards' smaller local
    // replicas and dirty structures pay off; column strides stay
    // collision-free within a batch, so no edge is double-mutated.
    const int ops_per_stripe = 64;
    const BatchFn interior = [&](int it, const Graph& g, MutationBatch* b) {
      (void)g;
      for (int s = 0; s < stripes; ++s) {
        const int mid_row = s * band_rows + band_rows / 2;
        for (int i = 0; i < ops_per_stripe; ++i) {
          const int c = 10 + ((it * ops_per_stripe + i) * 7) % (cols - 20);
          const int cell = mid_row * cols + c;
          // Net no-op on the graph, but both endpoints' balls go dirty.
          b->remove_edge(cell, cell + 1);
          b->add_edge(cell, cell + 1);
          BitString bits;
          bits.append_bit((it + i) % 2 != 0);
          b->set_proof_label(cell, std::move(bits));
        }
      }
    };
    std::printf("interior churn (%d ops/iter)\n",
                stripes * ops_per_stripe * 3);
    std::uint64_t k1 = 0;
    for (int k : {1, 2, 8}) {
      ChurnRow row = churn_run("interior-stripes", grid, p, *scheme, k,
                               iterations, interior);
      if (k == 1) {
        k1 = row.checksum;
      } else if (row.checksum != k1) {
        std::fprintf(stderr, "interior churn mismatch at k=%d\n", k);
        ok = false;
      }
      churn.push_back(std::move(row));
    }
  }

  // Cross-shard churn: preferential growth + transient edges between
  // arbitrary endpoints (bench/churn_stream.hpp), so batches straddle
  // boundaries and the halo machinery earns its keep.
  {
    const int churn_n = std::min(n, 100000);
    const int churn_cols = 250;
    Graph small = gen::grid(std::max(8, churn_n / churn_cols), churn_cols);
    const auto scheme = registry_scheme("bipartite");
    const Proof p = *scheme->prove(small);
    std::printf("cross-shard churn stream (n=%d)\n", small.n());
    std::uint64_t k1 = 0;
    for (int k : {1, 8}) {
      bench::ChurnStream stream({.grow_probability = 0.3,
                                 .attach_edges = 2,
                                 .churn_edges = 4,
                                 .window = 10,
                                 .seed = 23});
      const BatchFn cross = [&stream](int it, const Graph& g,
                                      MutationBatch* b) {
        stream.next(it, g, b);
      };
      ChurnRow row = churn_run("churn-stream", small, p, *scheme, k,
                               iterations, cross);
      if (k == 1) {
        k1 = row.checksum;
      } else if (row.checksum != k1) {
        std::fprintf(stderr, "churn-stream mismatch at k=%d\n", k);
        ok = false;
      }
      churn.push_back(std::move(row));
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  print_json(out, sweep, churn);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
