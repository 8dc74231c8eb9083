// The two library workloads: one closed-loop caller driving
// VerificationSessions through the public builder/apply() API.
//
//   structural-churn  topology writes from bench/churn_stream.hpp on
//                     "leader-election & maximal-matching", repaired by
//                     the registry's ComposedMaintainer; four sessions,
//                     batches sent round-robin.
//   relabel-storm     the paper's attack loop on leader-election over a
//                     10^5-node graph: proof-label bit flips in a hot
//                     region, restored one batch later; no topology
//                     change and no repair.
//
// A run is a sequence of identical episodes: build the sessions from the
// seed's base graphs (one set-up sample each), then apply a fixed number
// of batches.  Every episode does the same work, so the figures do not
// depend on how many batches a machine fits into --seconds, and a
// disturbed episode moves one of several.  Untraced episodes use the
// plain registry scheme with telemetry off; their apply() samples are the
// end-to-end metrics, timed on the process CPU clock (see
// process_cpu_ms) and scaled by the host's speed (host_speed.hpp).
// Every episode's verdict checksum must equal the
// first's.  Traced episode (--trace 1 only): fresh sessions built with
// the forwarding probes (probes.hpp) and telemetry(sink) on, so each
// session's library spans (session.*, incremental.*) and probe spans
// share one TraceRecorder; its checksum must equal the untraced one.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/matching.hpp"
#include "bench/churn_stream.hpp"
#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "dynamic/maintainer.hpp"
#include "graph/generators.hpp"
#include "obs/telemetry.hpp"
#include "probes.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace lcp;

/// Produces batch `it` from the session's current state (read through its
/// const accessors, between applies).  `it` starts at 0 on every pass.
class BatchSource {
 public:
  virtual ~BatchSource() = default;
  virtual void next(int it, const VerificationSession& s,
                    MutationBatch* out) = 0;
};

class ChurnSource final : public BatchSource {
 public:
  explicit ChurnSource(std::uint32_t seed)
      : stream_(bench::ChurnStream::Options{.grow_probability = 0.1,
                                            .attach_edges = 2,
                                            .churn_edges = 3,
                                            .window = 12,
                                            .seed = seed}) {}
  void next(int it, const VerificationSession& s,
            MutationBatch* out) override {
    stream_.next(it, s.graph(), out);
  }

 private:
  bench::ChurnStream stream_;
};

/// The attack loop: each batch restores the previous batch's labels and
/// flips one value bit in each of `hot` honest labels around a random
/// centre; every `period`-th batch only restores.  Tree certificates are
/// a 6-bit width, an 8-bit port, a root bit, then four width-bit fields;
/// only bits of the four fields flip, so every label still decodes.
class RelabelSource final : public BatchSource {
 public:
  RelabelSource(std::uint32_t seed, int hot, int period)
      : seed_(seed), hot_(hot), period_(period) {}

  void next(int it, const VerificationSession& s,
            MutationBatch* out) override {
    if (it == 0) {
      honest_ = s.proof().labels;  // the pass starts from the honest proof
      flipped_.clear();
    }
    for (int v : flipped_) {
      out->set_proof_label(v, honest_[static_cast<std::size_t>(v)]);
    }
    flipped_.clear();
    if (it % period_ == period_ - 1) return;
    std::mt19937 rng(seed_ * 2654435761u + static_cast<std::uint32_t>(it));
    const Graph& g = s.graph();
    hot_region(g, static_cast<int>(rng() % static_cast<unsigned>(g.n())));
    for (int v : flipped_) {
      const BitString& label = honest_[static_cast<std::size_t>(v)];
      BitReader reader(label);
      const int width = static_cast<int>(reader.read_uint(6));
      const int bit = 15 + static_cast<int>(rng() % static_cast<unsigned>(
                                                4 * std::max(width, 1)));
      BitString flipped;
      for (int i = 0; i < label.size(); ++i) {
        flipped.append_bit(i == bit ? !label.bit(i) : label.bit(i));
      }
      out->set_proof_label(v, std::move(flipped));
    }
  }

 private:
  /// The first `hot_` nodes of a BFS from `centre`, into flipped_.
  void hot_region(const Graph& g, int centre) {
    seen_.assign(static_cast<std::size_t>(g.n()), 0);
    seen_[static_cast<std::size_t>(centre)] = 1;
    flipped_.push_back(centre);
    for (std::size_t head = 0;
         head < flipped_.size() && static_cast<int>(flipped_.size()) < hot_;
         ++head) {
      for (const HalfEdge& h : g.neighbors(flipped_[head])) {
        if (seen_[static_cast<std::size_t>(h.to)] != 0) continue;
        seen_[static_cast<std::size_t>(h.to)] = 1;
        flipped_.push_back(h.to);
        if (static_cast<int>(flipped_.size()) == hot_) break;
      }
    }
  }

  std::uint32_t seed_;
  int hot_;
  int period_;
  std::vector<BitString> honest_;
  std::vector<int> flipped_;
  std::vector<std::uint8_t> seen_;
};

struct LibrarySpec {
  std::string name;
  /// One base graph per session; the closed-loop caller sends batch `it`
  /// to session it % sessions, so a run averages over independent graphs
  /// and streams instead of hanging on one seed's luck.
  std::vector<Graph> bases;
  std::string scheme;
  /// Structural churn resolves the registry maintainer (ComposedMaintainer
  /// for the conjunction); the attack loop binds KeepLabelsMaintainer.
  bool registry_maintainer = true;
  /// The batch source of session k.
  std::function<std::unique_ptr<BatchSource>(int k)> make_source;
  int episode_batches = 1000;
  /// Oracle checkpoints, in the first episode (later ones must reproduce
  /// its verdict checksum).
  int checkpoint_every = 250;
  /// The attack loop must see both ACCEPT and REJECT verdicts.
  bool expect_both_verdicts = false;
};

/// A live session plus the probes of a traced build.
struct Built {
  std::shared_ptr<obs::Telemetry> telemetry;  // outlives the session
  std::unique_ptr<VerificationSession> session;
  const TimedScheme* scheme = nullptr;
  const TimedMaintainer* maintainer = nullptr;
  double build_cpu_ms = 0;
  double setup_cpu_ms = 0;
  RunResult first;
};
using Fleet = std::vector<std::unique_ptr<Built>>;

/// Setup as the operator pays it: from a graph in hand to the first
/// verdict (build(): prove and maintainer bind; verify(): full sweep).
std::unique_ptr<Built> build_session(const LibrarySpec& spec, const Graph& base,
                                     bool traced) {
  auto b = std::make_unique<Built>();
  Graph graph = base;
  const double t0 = process_cpu_ms();
  std::unique_ptr<Scheme> scheme = builtin_registry().build(spec.scheme);
  VerificationSession::Builder builder =
      VerificationSession::on(std::move(graph));
  builder.engine(EngineKind::kIncremental);
  if (traced) {
    b->telemetry = std::make_shared<obs::Telemetry>();
    std::unique_ptr<dynamic::ProofMaintainer> inner =
        spec.registry_maintainer
            ? make_maintainer_for(*scheme, builtin_registry())
            : std::make_unique<KeepLabelsMaintainer>();
    auto timed_scheme =
        std::make_unique<TimedScheme>(std::move(scheme), b->telemetry->trace);
    auto timed_maintainer = std::make_unique<TimedMaintainer>(
        std::move(inner), b->telemetry->trace);
    b->scheme = timed_scheme.get();
    b->maintainer = timed_maintainer.get();
    builder.scheme(std::move(timed_scheme))
        .maintainer(std::move(timed_maintainer))
        .telemetry(b->telemetry);
  } else {
    builder.scheme(std::move(scheme));
    if (spec.registry_maintainer) {
      builder.maintain(true);
    } else {
      builder.maintainer(std::make_unique<KeepLabelsMaintainer>());
    }
  }
  // VerificationSession is pinned (no copy or move): construct it in
  // place from build()'s prvalue.
  b->session.reset(new VerificationSession(builder.build()));
  const double t1 = process_cpu_ms();
  b->first = b->session->verify();
  b->build_cpu_ms = t1 - t0;
  b->setup_cpu_ms = process_cpu_ms() - t0;
  return b;
}

/// With `speed`, samples the host's speed before, between and after the
/// set-ups.
Fleet build_fleet(const LibrarySpec& spec, bool traced,
                  HostSpeed* speed = nullptr) {
  Fleet fleet;
  const auto sample = [speed] {
    if (speed == nullptr) return;
    speed->sample();
    speed->sample();
  };
  for (const Graph& base : spec.bases) {
    sample();
    fleet.push_back(build_session(spec, base, traced));
  }
  sample();
  return fleet;
}

struct Episode {
  std::vector<double> cpu_ms;   // per batch: process CPU time of apply()
  std::vector<double> wall_ms;  // per batch: wall time of apply()
  /// Traced episode: (session, root span id) of each batch, in order.
  std::vector<std::pair<std::size_t, std::uint64_t>> roots;
  std::uint64_t checksum = 0;
  int batches = 0;
  std::uint64_t failed = 0;
  std::uint64_t accepts = 0;
  std::uint64_t rejects = 0;
  int checkpoints = 0;
};

/// Compares the session's last verdict with the reference sweep over the
/// same (graph, proof); returns false on any difference.
bool oracle_agrees(const VerificationSession& s, const LocalVerifier& ref,
                   const RunResult& last) {
  const RunResult want = sweep_sequential(s.graph(), s.proof(), ref);
  return want.all_accept == last.all_accept && want.rejecting == last.rejecting;
}

/// Untimed host-speed samples, one per this many batches.
constexpr int kSpeedSampleEvery = 20;

/// Applies spec.episode_batches batches to a freshly built fleet, batch
/// `it` to session it % fleet size.  With `oracle`, checks every session
/// against sweep_sequential at checkpoints and at the end (untimed).
/// With `speed`, samples the host's speed between batches.
Episode run_episode(const LibrarySpec& spec, Fleet& fleet,
                    const Scheme& reference, bool oracle, HostSpeed* speed,
                    Result& r) {
  Episode p;
  const std::size_t k_count = fleet.size();
  std::vector<std::unique_ptr<BatchSource>> sources;
  std::vector<RunResult> last;
  for (std::size_t k = 0; k < k_count; ++k) {
    sources.push_back(spec.make_source(static_cast<int>(k)));
    last.push_back(fleet[k]->first);
  }
  const auto check_all = [&](const std::string& when) {
    for (std::size_t k = 0; k < k_count; ++k) {
      ++p.checkpoints;
      if (!oracle_agrees(*fleet[k]->session, reference.verifier(), last[k])) {
        ++p.failed;
        r.fail(spec.name + ": verdict differs from sweep_sequential " + when);
      }
    }
  };
  p.cpu_ms.reserve(static_cast<std::size_t>(spec.episode_batches));
  p.wall_ms.reserve(static_cast<std::size_t>(spec.episode_batches));
  for (int it = 0; it < spec.episode_batches; ++it) {
    const std::size_t k = static_cast<std::size_t>(it) % k_count;
    Built& b = *fleet[k];
    MutationBatch batch;
    sources[k]->next(it / static_cast<int>(k_count), *b.session, &batch);

    obs::TraceRecorder::Span root;
    if (b.telemetry != nullptr) root = b.telemetry->trace.span("bench.apply");
    bool threw = false;
    const double c0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    try {
      last[k] = b.session->apply(batch);
    } catch (const std::exception& e) {
      threw = true;
      r.fail(spec.name + ": apply threw: " + e.what());
    }
    const Clock::time_point t1 = Clock::now();
    const double c1 = process_cpu_ms();
    if (root.active()) {
      p.roots.emplace_back(k, root.id());
      root.close();
    }
    ++p.batches;
    if (threw) {
      ++p.failed;
      break;  // the pair is left mid-batch; nothing after it is meaningful
    }
    p.cpu_ms.push_back(c1 - c0);
    p.wall_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    const RunResult& res = last[k];
    (res.all_accept ? p.accepts : p.rejects) += 1;
    p.checksum = mix(p.checksum, res.all_accept ? 1 : 0);
    p.checksum = mix(p.checksum, res.rejecting.size());
    if (!res.rejecting.empty()) {
      p.checksum =
          mix(p.checksum, static_cast<std::uint64_t>(res.rejecting.front()));
    }
    if (speed != nullptr && (it + 1) % kSpeedSampleEvery == 0) {
      speed->sample();
    }
    if (oracle && (it + 1) % spec.checkpoint_every == 0) {
      check_all("after " + std::to_string(it + 1) + " batches");
    }
  }
  if (oracle) check_all("at the end");
  return p;
}

double sum_of(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Per-name span totals over every batch tree of a traced fleet.
struct SpanTotals {
  std::unordered_map<std::string, double> dur_ns;
  std::unordered_map<std::string, double> self_ns;
  std::vector<SpanRecord> spans;  // everything recorded, for the trace file
  bool nested = true;
};

/// Self time = duration minus the children's durations; every span under
/// a bench.apply root belongs to that root's batch.
void collect_spans(const Fleet& fleet, const Episode& pass,
                   SpanTotals& out) {
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    const std::vector<obs::TraceRecorder::Event> events =
        fleet[k]->telemetry->trace.events();
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < events.size(); ++i) index[events[i].id] = i;
    std::unordered_map<std::uint64_t, std::uint64_t> batch_of_root;
    for (std::size_t b = 0; b < pass.roots.size(); ++b) {
      if (pass.roots[b].first == k) batch_of_root[pass.roots[b].second] = b + 1;
    }
    std::vector<double> child_ns(events.size(), 0);
    for (const auto& e : events) {
      const auto it = index.find(e.parent);
      if (e.parent != 0 && it != index.end()) {
        child_ns[it->second] += static_cast<double>(e.dur_ns);
      }
    }
    // Span ids restart per recorder; the session index keeps them apart.
    const std::uint64_t id_base = static_cast<std::uint64_t>(k) << 40;
    for (std::size_t i = 0; i < events.size(); ++i) {
      std::size_t at = i;
      while (events[at].parent != 0) {
        const auto up = index.find(events[at].parent);
        if (up == index.end()) break;
        at = up->second;
      }
      const auto root = batch_of_root.find(events[at].id);
      const std::uint64_t batch =
          root == batch_of_root.end() ? 0 : root->second;
      const auto& e = events[i];
      out.spans.push_back(SpanRecord{
          e.name, id_base + e.id, e.parent == 0 ? 0 : id_base + e.parent,
          batch, static_cast<int>(k), e.start_ns, e.dur_ns});
      if (batch == 0) continue;  // set-up spans: written out, not ledgered
      const double self = static_cast<double>(e.dur_ns) - child_ns[i];
      if (self < 0) out.nested = false;
      out.dur_ns[e.name] += static_cast<double>(e.dur_ns);
      out.self_ns[e.name] += self;
    }
  }
}

/// The traced pass's per-layer numbers and the ledger check.
void traced_metrics(const LibrarySpec& spec, const Options& o,
                    std::uint64_t plain_checksum, double plain_cpu_p50,
                    Result& r) {
  Fleet fleet = build_fleet(spec, /*traced=*/true);
  const std::unique_ptr<Scheme> reference =
      builtin_registry().build(spec.scheme);
  // Counters summed over the fleet, read before and after the pass.
  struct Counters {
    IncrementalEngine::Stats e;
    SessionStats s;
    std::uint64_t calls = 0, accept_ns = 0, ops = 0, prove_ns = 0;
  };
  const auto read = [&fleet] {
    Counters c;
    for (const auto& b : fleet) {
      const IncrementalEngine::Stats& e =
          b->session->incremental_engine()->stats();
      c.e.nodes_reverified += e.nodes_reverified;
      c.e.reextractions += e.reextractions;
      c.e.views_patched += e.views_patched;
      c.e.patch_fallbacks += e.patch_fallbacks;
      c.e.full_sweeps += e.full_sweeps;
      c.e.fallbacks += e.fallbacks;
      c.e.sharded_rounds += e.sharded_rounds;
      c.s.declined += b->session->stats().declined;
      c.s.reproves += b->session->stats().reproves;
      c.calls += b->scheme->timed_verifier().calls();
      c.accept_ns += b->scheme->timed_verifier().ns();
      c.ops += b->maintainer->ops();
      c.prove_ns += b->scheme->prove_ns();
    }
    return c;
  };
  const Counters c0 = read();
  const Episode traced =
      run_episode(spec, fleet, *reference, true, nullptr, r);
  const Counters c1 = read();
  if (traced.checksum != plain_checksum) {
    r.fail(spec.name + ": traced run's verdict checksum differs");
  }
  const double n = std::max(1, traced.batches);
  SpanTotals t;
  collect_spans(fleet, traced, t);
  if (!t.nested) r.fail(spec.name + ": a child span outlasts its parent");

  const std::vector<std::pair<const char*, std::vector<const char*>>> layers =
      {{"core.session", {"session.apply", "session.repair", "session.reprove"}},
       {"core.delta", {"session.mutate"}},
       {"core.incremental",
        {"session.verify", "incremental.dirty_scan", "incremental.reextract",
         "incremental.verify", "incremental.full_sweep"}},
       {"schemes", {"schemes.accept", "schemes.prove"}},
       {"dynamic", {"dynamic.repair"}}};
  const double measured_ns = sum_of(traced.wall_ms) * 1e6;
  const double unattributed_ns = t.self_ns["bench.apply"];
  double ledger_ns = unattributed_ns;
  for (const auto& [layer, names] : layers) {
    double layer_ns = 0;
    for (const char* name : names) layer_ns += t.self_ns[name];
    ledger_ns += layer_ns;
    r.note(std::string("ledger.") + layer + ".self_us_per_batch",
           layer_ns / 1e3 / n);
  }
  r.note("ledger.unattributed.self_us_per_batch", unattributed_ns / 1e3 / n);
  r.note("ledger.measured_us_per_batch", measured_ns / 1e3 / n);
  // The span clock and the bench's own clock read a few ns apart per
  // batch; anything beyond 1% means the ledger lost or double-counted time.
  if (measured_ns <= 0 ||
      std::abs(ledger_ns - measured_ns) > 0.01 * measured_ns) {
    r.fail(spec.name + ": layer self times + unattributed (" +
           std::to_string(ledger_ns / 1e6) + " ms) != measured total (" +
           std::to_string(measured_ns / 1e6) + " ms)");
  }

  auto& dur = t.dur_ns;
  const double us = 1e-3;  // ns -> us
  const double repair_ns = dur["session.repair"] + dur["session.reprove"];
  const double accept_calls = static_cast<double>(c1.calls - c0.calls);
  const double patched =
      static_cast<double>(c1.e.views_patched - c0.e.views_patched);
  const double reextracted =
      static_cast<double>(c1.e.reextractions - c0.e.reextractions);
  const auto per_batch = [n](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / n;
  };
  // Set-up proves only: the steady phase never reproves here.
  r.add("schemes.prove.ms",
        static_cast<double>(c0.prove_ns) / 1e6 /
            static_cast<double>(fleet.size()),
        "ms");
  r.add("schemes.accept.calls", accept_calls / n, "count");
  r.add("schemes.accept.ns_per_call",
        accept_calls > 0
            ? static_cast<double>(c1.accept_ns - c0.accept_ns) / accept_calls
            : 0,
        "ns");
  r.add("core.session.apply.us", dur["bench.apply"] * us / n, "us");
  r.add("core.session.mutate.us", dur["session.mutate"] * us / n, "us");
  r.add("core.session.self.us",
        (dur["session.apply"] - repair_ns - dur["session.verify"]) * us / n,
        "us");
  r.add("core.incremental.engine_self.us",
        (dur["session.verify"] - dur["schemes.accept"]) * us / n, "us");
  r.add("core.incremental.dirty_scan.us",
        dur["incremental.dirty_scan"] * us / n, "us");
  r.add("core.incremental.reextract.us", dur["incremental.reextract"] * us / n,
        "us");
  r.add("core.incremental.nodes_reverified",
        per_batch(c1.e.nodes_reverified, c0.e.nodes_reverified), "count");
  r.add("core.incremental.reextractions", reextracted / n, "count");
  r.add("core.incremental.views_patched", patched / n, "count");
  r.add("core.incremental.patch_fallbacks",
        per_batch(c1.e.patch_fallbacks, c0.e.patch_fallbacks), "count");
  r.add("core.incremental.patch_ratio",
        patched + reextracted > 0 ? patched / (patched + reextracted) : 0,
        "ratio");
  r.add("core.incremental.full_sweeps",
        static_cast<double>(c1.e.full_sweeps - c0.e.full_sweeps), "count");
  r.add("core.incremental.fallbacks",
        static_cast<double>(c1.e.fallbacks - c0.e.fallbacks), "count");
  r.add("core.incremental.sharded_rounds",
        static_cast<double>(c1.e.sharded_rounds - c0.e.sharded_rounds),
        "count");
  r.add("dynamic.repair.us", dur["dynamic.repair"] * us / n, "us");
  r.add("dynamic.repair.ops", per_batch(c1.ops, c0.ops), "count");
  r.add("dynamic.declines",
        static_cast<double>(c1.s.declined - c0.s.declined), "count");
  r.add("core.session.reproves",
        static_cast<double>(c1.s.reproves - c0.s.reproves), "count");
  r.add("unattributed_pct",
        dur["bench.apply"] > 0 ? 100.0 * unattributed_ns / dur["bench.apply"]
                               : 0,
        "%");
  // Medians of the CPU samples, as for the end-to-end latency.
  r.add("trace_overhead_pct",
        plain_cpu_p50 > 0
            ? 100.0 * (median(traced.cpu_ms) - plain_cpu_p50) / plain_cpu_p50
            : 0,
        "%");
  r.failed += traced.failed;
  r.attempted +=
      static_cast<std::uint64_t>(traced.batches) + traced.checkpoints;
  if (!write_spans(o.out_dir, spec.name + ".trace.json", t.spans)) {
    std::fprintf(stderr, "perfbench: could not write %s/%s.trace.json\n",
                 o.out_dir.c_str(), spec.name.c_str());
  }
}

/// The server layers, which no library workload runs.
constexpr LayerMetric kServerLayers[] = {
    {"server.frame.apply_deltas.us", "us"},
    {"server.frame.poll_verdict.us", "us"},
    {"server.frame.open_session.us", "us"},
    {"server.frame.close.us", "us"},
    {"server.client_codec.us", "us"},
    {"server.coalesce_ratio", "ratio"},
    {"server.apply.mean_us", "us"},
    {"server.wait.us", "us"},
    {"server.polls_per_verdict", "count"},
    {"server.overloads", "count"},
    {"server.max_queue_depth", "count"},
    {"gen.lag_ms", "ms"},  // a closed loop sends each batch when it is due
};

Result run_library(const Options& o, const LibrarySpec& spec) {
  Result r;
  const std::unique_ptr<Scheme> reference =
      builtin_registry().build(spec.scheme);
  HostSpeed speed;
  std::vector<double> setup_ms, open_ms, cpu_ms, wall_ms, rates, factors;
  std::vector<double> raw_cpu_ms, raw_setup_ms;
  std::uint64_t checksum = 0;
  std::uint64_t accepts = 0, rejects = 0;
  int episodes = 0;
  // Whole episodes while the next one is expected to end within
  // --seconds, and at least one.
  const Clock::time_point start = Clock::now();
  // Each time is scaled by the host's speed over its own stretch: the
  // set-ups by samples taken around them, the batches by samples taken
  // between them.
  for (;;) {
    speed.reset();
    Fleet fleet = build_fleet(spec, /*traced=*/false, &speed);
    const double setup_f = speed.factor();
    speed.reset();
    const Episode e =
        run_episode(spec, fleet, *reference, episodes == 0, &speed, r);
    const double f = speed.factor();
    factors.push_back(f);
    for (const auto& b : fleet) {
      setup_ms.push_back(b->setup_cpu_ms * setup_f);
      raw_setup_ms.push_back(b->setup_cpu_ms);
      open_ms.push_back(b->build_cpu_ms * setup_f);
      if (!b->first.all_accept) {
        r.fail(spec.name + ": the honest initial state was rejected");
      }
    }
    fleet.clear();
    ++episodes;
    r.attempted += static_cast<std::uint64_t>(e.batches) + e.checkpoints;
    r.failed += e.failed;
    for (const double ms : e.cpu_ms) cpu_ms.push_back(ms * f);
    raw_cpu_ms.insert(raw_cpu_ms.end(), e.cpu_ms.begin(), e.cpu_ms.end());
    wall_ms.insert(wall_ms.end(), e.wall_ms.begin(), e.wall_ms.end());
    rates.push_back(static_cast<double>(e.cpu_ms.size()) * 1e3 /
                    std::max(sum_of(e.cpu_ms) * f, 1e-9));
    if (episodes == 1) {
      checksum = e.checksum;
      accepts = e.accepts;
      rejects = e.rejects;
    } else if (e.checksum != checksum) {
      ++r.failed;
      r.fail(spec.name + ": episode " + std::to_string(episodes) +
             "'s verdicts differ from the first episode's");
    }
    if (e.failed > 0) break;
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed / episodes * (episodes + 1) > o.seconds) break;
  }
  if (spec.expect_both_verdicts && (accepts == 0 || rejects == 0)) {
    r.fail(spec.name + ": expected both ACCEPT and REJECT verdicts");
  }
  r.note("episodes", static_cast<double>(episodes));
  r.note("batches_per_episode", static_cast<double>(spec.episode_batches));
  r.note("accepts_per_episode", static_cast<double>(accepts));
  r.note("rejects_per_episode", static_cast<double>(rejects));
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(checksum));
  r.note("verdict_checksum", hex);
  if (!o.trace) {
    r.add("setup_s", median(setup_ms) / 1e3, "s");
    add_latency_metrics(r, cpu_ms, median(cpu_ms), false);
    r.add("batches_per_s", median(rates), "1/s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("open_p50_ms", median(open_ms), "ms");
    r.note("setup_samples", static_cast<double>(setup_ms.size()));
    r.note("latency_cpu_p50_ms", median(raw_cpu_ms));
    r.note("raw_setup_s", median(raw_setup_ms) / 1e3);
    r.note("host_speed_factor", median(factors));
    r.note("latency_raw_p50_ms", median(wall_ms));
  } else {
    add_latency_metrics(r, cpu_ms, median(cpu_ms), true);
    r.add("latency_raw_p50_ms", median(wall_ms), "ms");
    traced_metrics(spec, o, checksum, median(cpu_ms), r);
    add_layers_not_run(r, kServerLayers);
    r.add("error_rate",
          r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0,
          "ratio");
  }
  return r;
}

}  // namespace

void label_greedy_matching(Graph& g) {
  const std::vector<bool> matched = greedy_maximal_matching(g);
  for (int e = 0; e < g.m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      g.set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }
}

Result run_structural_churn(const Options& o) {
  LibrarySpec spec;
  spec.name = "structural-churn";
  // Four 500-node grids, each with its own ids and churn stream.  Grids
  // keep the base structure the same across seeds; several streams per
  // run average out how fast preferential attachment grows hubs in any
  // one of them.
  const int sessions = o.smoke ? 2 : 4;
  for (int k = 0; k < sessions; ++k) {
    Graph g = gen::shuffle_ids(o.smoke ? gen::grid(15, 15) : gen::grid(20, 25),
                               o.seed * 4 + static_cast<std::uint32_t>(k));
    g.set_label(0, schemes::kLeaderFlag);
    label_greedy_matching(g);
    spec.bases.push_back(std::move(g));
  }
  spec.scheme = "leader-election & maximal-matching";
  spec.registry_maintainer = true;
  const std::uint32_t seed = o.seed;
  spec.make_source = [seed](int k) {
    return std::make_unique<ChurnSource>(seed * 4 +
                                         static_cast<std::uint32_t>(k));
  };
  spec.episode_batches = o.smoke ? 100 : 1000;
  spec.checkpoint_every = o.smoke ? 50 : 250;
  return run_library(o, spec);
}

Result run_relabel_storm(const Options& o) {
  LibrarySpec spec;
  spec.name = "relabel-storm";
  const int n = o.smoke ? 2000 : 100000;
  spec.bases.push_back(gen::random_sparse_connected(n, n / 2, o.seed));
  spec.bases.back().set_label(0, schemes::kLeaderFlag);
  spec.scheme = "leader-election";
  spec.registry_maintainer = false;
  const std::uint32_t seed = o.seed;
  const int hot = o.smoke ? 40 : 100;
  spec.make_source = [seed, hot](int) {
    return std::make_unique<RelabelSource>(seed, hot, /*period=*/4);
  };
  // Short episodes, so that a run holds several set-ups (prove and sweep
  // 10^5 nodes, about as long as the episode's batches).
  spec.episode_batches = o.smoke ? 40 : 200;
  spec.checkpoint_every = o.smoke ? 20 : 100;
  spec.expect_both_verdicts = true;
  return run_library(o, spec);
}

}  // namespace perfbench
