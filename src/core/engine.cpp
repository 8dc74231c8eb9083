#include "core/engine.hpp"

#include <algorithm>
#include <functional>
#include <thread>

#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

namespace {

inline void hash_mix(std::uint64_t& h, std::uint64_t value) {
  // FNV-1a over the value's bytes, 8 at a time.
  h ^= value;
  h *= 0x100000001b3ull;
}

}  // namespace

std::uint64_t graph_fingerprint(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  hash_mix(h, static_cast<std::uint64_t>(g.n()));
  hash_mix(h, static_cast<std::uint64_t>(g.m()));
  for (int v = 0; v < g.n(); ++v) {
    hash_mix(h, g.id(v));
    hash_mix(h, g.label(v));
  }
  for (int e = 0; e < g.m(); ++e) {
    hash_mix(h, static_cast<std::uint64_t>(g.edge_u(e)));
    hash_mix(h, static_cast<std::uint64_t>(g.edge_v(e)));
    hash_mix(h, g.edge_label(e));
    hash_mix(h, static_cast<std::uint64_t>(g.edge_weight(e)));
  }
  return h;
}

RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a) {
  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(g.n());
  ViewExtractor extractor(g);
  const int radius = a.radius();
  for (int v = 0; v < g.n(); ++v) {
    const View view = extractor.extract(p, v, radius);
    if (!a.accept(view)) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// SweepEngine: inline, or contiguous node ranges over the WorkerPool.
// ---------------------------------------------------------------------------

SweepEngine::~SweepEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void SweepEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  // The pool is created lazily on the first pooled run; when it exists
  // already, register its lanes now, otherwise run() registers at
  // creation.
  if (telemetry_ != nullptr && pool_ != nullptr) {
    pool_->register_metrics(telemetry_->metrics, "pool.parallel", this);
  }
}

RunResult SweepEngine::run(const Graph& g, const Proof& p,
                           const LocalVerifier& a) {
  const int n = g.n();
  const int lanes = std::max(
      1, threads_ > 0 ? threads_
                      : static_cast<int>(std::thread::hardware_concurrency()));
  const int workers = std::min(lanes, n);
  if (workers <= 1 || n < 2 * workers) return sweep_sequential(g, p, a);

  // Contiguous shard [lo, hi) per worker so that concatenating per-shard
  // rejects in shard order reproduces the sequential ascending order
  // exactly.
  const int radius = a.radius();
  std::vector<std::vector<int>> rejecting(static_cast<std::size_t>(workers));
  const std::function<void(int)> shard = [&](int w) {
    const int lo = static_cast<int>(static_cast<long long>(n) * w / workers);
    const int hi =
        static_cast<int>(static_cast<long long>(n) * (w + 1) / workers);
    ViewExtractor extractor(g);
    for (int v = lo; v < hi; ++v) {
      const View view = extractor.extract(p, v, radius);
      if (!a.accept(view)) {
        rejecting[static_cast<std::size_t>(w)].push_back(v);
      }
    }
  };

  obs::maybe_emit(journal_, obs::JournalEventKind::kLaneDispatch,
                  "engine.parallel", {{"lanes", workers}, {"nodes", n}});
  if (pool_ == nullptr) {
    // Sized for every lane, so smaller and larger graphs share it.
    pool_ = std::make_unique<WorkerPool>(lanes);
    if (telemetry_ != nullptr) {
      pool_->register_metrics(telemetry_->metrics, "pool.parallel", this);
    }
  }
  pool_->dispatch(workers, shard);

  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(n);
  for (const std::vector<int>& shard_rejects : rejecting) {
    result.rejecting.insert(result.rejecting.end(), shard_rejects.begin(),
                            shard_rejects.end());
  }
  result.all_accept = result.rejecting.empty();
  return result;
}

ExecutionEngine& default_engine() {
  // One thread: run() is then sweep_sequential — stateless and re-entrant
  // (a verifier may itself call into the default engine), and one-shot
  // call sites don't pin anything in a global.
  static SweepEngine engine(1);
  return engine;
}

}  // namespace lcp
