// Pluggable execution engines for whole-graph verifier runs.
//
// The paper's acceptance predicate quantifies over every node: A(G, P, v)
// must be evaluated at all v (Section 2.1).  How that sweep is executed is
// an engineering choice independent of the semantics, so it is factored
// into an ExecutionEngine interface with interchangeable backends:
//
//   - SweepEngine: the stateless sweep.  One thread runs sweep_sequential
//     inline ("direct"); more threads shard contiguous node ranges over a
//     persistent worker pool ("parallel").  It keeps no views or verdicts
//     between runs.
//   - MessagePassingEngine (local/message_passing.hpp): explicit LOCAL-model
//     flooding rounds; the reference semantics for the equivalence tests.
//   - IncrementalEngine (core/incremental.hpp): the one caching engine.  It
//     keeps per-node views and verdicts and, fed graph/proof deltas through
//     a DeltaTracker (core/delta.hpp), re-verifies only the nodes whose
//     balls intersect the change.
//   - SpotCheckEngine (core/spot_check.hpp): verifies a budgeted sample of
//     the dirty balls and escalates any sampled rejection to an exact inner
//     engine; it builds on the same delta machinery.
//
// All engines must produce bit-identical RunResults on the same input; the
// equivalence corpus in tests/test_engines.cpp enforces this.
#ifndef LCP_CORE_ENGINE_HPP_
#define LCP_CORE_ENGINE_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/proof.hpp"
#include "core/verifier.hpp"
#include "core/view.hpp"
#include "core/worker_pool.hpp"
#include "graph/graph.hpp"

namespace lcp {

class DeltaTracker;

namespace obs {
struct Telemetry;
class Journal;
}  // namespace obs

/// The global outcome of one verifier execution.
///
/// `all_accept`/`rejecting` are the paper's semantics and must be
/// bit-identical across engines (tests/test_engines.cpp).  The remaining
/// fields are *attribution* for the diagnosis tier (obs/forensics.hpp):
/// how much work the run did and, for verdicts returned by a
/// VerificationSession, which centres flipped since the session's
/// previous verdict.  Engines keep no verdict history, so a bare
/// engine->run() leaves the flip fields empty; equivalence tests compare
/// only the first two fields.
struct RunResult {
  bool all_accept = true;
  std::vector<int> rejecting;  // dense indices of nodes that output 0

  /// Verifier evaluations attributable to this run (n for full sweeps,
  /// the dirty-set size for incremental runs, 0 for unchanged runs).
  std::uint64_t evaluated = 0;
  /// True when the session could diff this verdict against its previous
  /// one; the flip lists below are only meaningful then.
  bool flips_known = false;
  /// Centres that flipped accept -> reject this run (ascending; a subset
  /// of `rejecting`).
  std::vector<int> newly_rejecting;
  /// Centres that flipped reject -> accept this run (ascending).
  std::vector<int> newly_accepting;
};

/// Strategy interface: evaluate verifier `a` at every node of g under
/// proof p.  Engines may keep internal caches/scratch between runs, hence
/// the non-const run(); a single engine instance must not be shared across
/// threads without external synchronisation (engines may parallelise
/// internally, as a multi-thread SweepEngine does).
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Stable backend name ("direct", "message-passing", "parallel",
  /// "incremental").
  virtual std::string name() const = 0;

  virtual RunResult run(const Graph& g, const Proof& p,
                        const LocalVerifier& a) = 0;

  /// Offers a DeltaTracker as the mutation channel for subsequent runs
  /// (nullptr detaches).  Returns true when the engine will consume the
  /// tracker's dirty log (IncrementalEngine); the default backend ignores
  /// trackers and returns false.  Callers that attach a stack-local
  /// tracker must detach it before it dies (TrackerAttachment does).
  virtual bool attach_tracker(DeltaTracker* tracker) {
    (void)tracker;
    return false;
  }

  /// The tracker currently attached, if the engine consumes trackers.
  virtual DeltaTracker* attached_tracker() const { return nullptr; }

  /// Offers a telemetry sink (obs/telemetry.hpp); nullptr detaches.  An
  /// engine that opts in adapts its live Stats counters into the sink's
  /// MetricRegistry as derived gauges under "engine.<name>." (plus any
  /// pool/store gauges it owns) and emits trace spans around its
  /// phases.  Implementations must withdraw their derived gauges — from
  /// the previously attached registry on re-attach/detach, and in their
  /// destructor — so a registry can safely outlive the engine.  The
  /// default backend ignores telemetry.
  virtual void attach_telemetry(obs::Telemetry* telemetry) {
    (void)telemetry;
  }

  /// The telemetry sink currently attached, if the engine consumes one.
  virtual obs::Telemetry* attached_telemetry() const { return nullptr; }

  /// Offers a flight-recorder journal (obs/journal.hpp); nullptr
  /// detaches.  An engine that opts in emits structured events (patch
  /// fallbacks, lane dispatches, cache overflows) while attached.  The
  /// default backend ignores journals.
  virtual void attach_journal(obs::Journal* journal) { (void)journal; }

  /// The journal currently attached, if the engine consumes one.
  virtual obs::Journal* attached_journal() const { return nullptr; }
};

/// RAII attachment: offers a tracker to the engine for the current scope
/// and, on exit, restores whatever was attached before (so nested helpers
/// that borrow a caller's engine don't strip its tracker), which also
/// guarantees stack-local trackers never dangle inside the engine.
class TrackerAttachment {
 public:
  TrackerAttachment(ExecutionEngine& engine, DeltaTracker& tracker)
      : engine_(&engine),
        previous_(engine.attached_tracker()),
        attached_(engine.attach_tracker(&tracker)) {}
  ~TrackerAttachment() {
    if (attached_) engine_->attach_tracker(previous_);
  }
  TrackerAttachment(const TrackerAttachment&) = delete;
  TrackerAttachment& operator=(const TrackerAttachment&) = delete;

  /// True when the engine consumes the tracker's dirty log.
  bool consumed() const { return attached_; }

 private:
  ExecutionEngine* engine_;
  DeltaTracker* previous_;
  bool attached_;
};

/// A 64-bit structural fingerprint of a graph: ids, node labels, edges,
/// edge labels and weights.  Two graphs with equal fingerprints are treated
/// as identical by the ball caches (IncrementalEngine, BallStore keys).
std::uint64_t graph_fingerprint(const Graph& g);

/// The plain sequential sweep every engine bottoms out in: a stack-local
/// extractor, no caching, re-entrant and stateless.  It is the reference
/// semantics: SweepEngine runs it inline, and IncrementalEngine's fallbacks
/// call it, so the semantics live in exactly one place.
RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a);

/// The stateless backend: every run evaluates every node's ball afresh and
/// nothing is retained between runs.  With one thread, run() is
/// sweep_sequential.  With more, contiguous node ranges are verified
/// concurrently on a persistent WorkerPool (created on the first run that
/// uses it), one ViewExtractor per lane; rejecting nodes are concatenated
/// in range order, so the RunResult is bit-identical to the sequential
/// one.  Graphs with fewer than two nodes per lane are swept inline.  A
/// multi-thread engine requires the verifier's accept() to be thread-safe
/// (all in-repo verifiers are).
class SweepEngine final : public ExecutionEngine {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit SweepEngine(int threads) : threads_(threads) {}
  ~SweepEngine() override;

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// "direct" for a one-thread engine, "parallel" otherwise (the
  /// make_engine spellings).
  std::string name() const override {
    return threads_ == 1 ? "direct" : "parallel";
  }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Registers "pool.parallel.*" lane gauges (once the pool exists —
  /// registration is lazy, at pool creation).
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Emits one lane-dispatch event per pooled run while attached.
  void attach_journal(obs::Journal* journal) override { journal_ = journal; }
  obs::Journal* attached_journal() const override { return journal_; }

 private:
  int threads_;  // as requested; 0 = hardware threads
  std::unique_ptr<WorkerPool> pool_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
};

/// The process-wide engine for one-off sweeps: a one-thread SweepEngine,
/// so its run() is stateless, re-entrant, and retains no memory between
/// calls (the seed's run_verifier semantics).  Loops that re-verify one
/// graph under many proofs should hold an IncrementalEngine instead.
ExecutionEngine& default_engine();

/// Factory by backend name: "direct", "message-passing", "parallel",
/// "incremental", or "spotcheck[:BUDGET[:inner]]" (BUDGET in [0, 1];
/// inner is any exact backend name, default "incremental" — see
/// core/spot_check.hpp).  Throws std::invalid_argument on an unknown
/// name.  Defined in local/engine_factory.cpp so core/ stays independent
/// of local/.
std::unique_ptr<ExecutionEngine> make_engine(std::string_view name);

}  // namespace lcp

#endif  // LCP_CORE_ENGINE_HPP_
