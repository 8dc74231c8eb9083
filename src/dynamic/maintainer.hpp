// Dynamic proof maintenance: provers that repair certificates under
// mutation.
//
// The paper's schemes are static — a prover labels a fixed graph once.  On
// a mutating graph that model starves the incremental verifier
// (core/incremental.hpp): the dirty-ball re-verification is O(|delta|),
// but regenerating the proof after every mutation is O(n), so the end-to-
// end pipeline stays linear.  Following the dynamic view of proof
// labelings (Balliu et al., Local Distributed Verification; Emek-Gil-
// Kutten, Locally Restricted Proof Labeling Schemes), the proof assignment
// itself becomes the dynamic object: a ProofMaintainer shadows one
// scheme's certificate structure, observes every applied MutationBatch,
// and emits a *repair* batch — the minimal set of set_proof_label /
// set_edge_label ops that restore the scheme's invariant — instead of a
// whole new proof.
//
// The contract mirrors the two-sided guarantee of a scheme:
//   - completeness is maintained: while bound, if the property holds after
//     the mutation, the repaired assignment is accepted at every node;
//   - soundness needs no maintenance: on a no-instance *every* assignment,
//     repaired or stale, is rejected somewhere — the verifier does not
//     trust the maintainer.
// A maintainer that cannot (or does not want to) repair a batch declines;
// the VerificationSession (core/session.hpp) that drives it then falls
// back to a full reprove through the scheme and rebinds.
#ifndef LCP_DYNAMIC_MAINTAINER_HPP_
#define LCP_DYNAMIC_MAINTAINER_HPP_

#include <string>

#include "core/delta.hpp"
#include "core/proof.hpp"
#include "graph/graph.hpp"

namespace lcp::obs {
class Journal;
class MetricRegistry;
}  // namespace lcp::obs

namespace lcp::dynamic {

/// Observes graph mutations and repairs one scheme's certificate
/// assignment in place of regeneration.
class ProofMaintainer {
 public:
  virtual ~ProofMaintainer() = default;

  /// Stable name, e.g. "tree-cert" or "greedy-coloring".
  virtual std::string name() const = 0;

  /// (Re)derives the shadow state from the current pair.  Returns false
  /// when the assignment cannot be adopted (malformed, inconsistent, or
  /// not this maintainer's certificate shape); the maintainer is then
  /// unbound and repair() must not be called until a bind succeeds.
  virtual bool bind(const Graph& g, const Proof& p) = 0;

  /// Replays one *already applied* graph batch against the shadow state
  /// and appends repair ops to `out` (set_proof_label, and for schemes
  /// whose solution lives in the input labelling, set_edge_label /
  /// set_node_label).  `g` and `p` are the post-batch, pre-repair state.
  /// Returns false to decline the batch; the shadow state is then stale
  /// and the caller must reprove and bind() again before the next repair.
  virtual bool repair(const Graph& g, const Proof& p,
                      const MutationBatch& applied, MutationBatch* out) = 0;

  /// Adapts the maintainer's live counters into the registry as derived
  /// gauges under "maintainer.<name>." (obs/metrics.hpp).  Entries must be
  /// tagged with `owner` so the caller can withdraw them via
  /// MetricRegistry::remove_owned when the maintainer dies before the
  /// registry.  Default: no metrics.
  virtual void register_metrics(obs::MetricRegistry& registry,
                                const void* owner) {
    (void)registry;
    (void)owner;
  }

  /// Offers a flight-recorder journal (obs/journal.hpp); nullptr
  /// detaches.  Maintainers emit one repair_emitted event per healed
  /// batch (and repair-specific counts) while attached.  Composites
  /// forward to their parts.
  virtual void attach_journal(obs::Journal* journal) { journal_ = journal; }
  obs::Journal* attached_journal() const { return journal_; }

 protected:
  obs::Journal* journal_ = nullptr;
};

}  // namespace lcp::dynamic

#endif  // LCP_DYNAMIC_MAINTAINER_HPP_
