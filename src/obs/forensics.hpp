// Rejection forensics: turn a verdict flip into an explainable artefact.
//
// The paper's locality argument makes rejection diagnosis cheap: a
// rejected instance is always witnessed by concrete radius-r balls (the
// verifier's decision at a centre reads nothing else), so "why did the
// session start rejecting?" has an O(|rejecting|)-sized answer that can
// be captured, serialised, and re-checked independently of the engine
// that produced it.  This header builds that answer:
//
//   - RejectionWitness: one rejecting centre plus its full radius-r view
//     (ball graph, proofs, distances) — re-verifiable by any engine;
//   - RejectionReport: the witnesses, the mutation batch and repair that
//     preceded the flip, a greedy shrink of the offending batch to a
//     minimal still-rejecting sub-batch, per-maintainer repair history
//     for the window, and the flight-recorder tail (obs/journal.hpp);
//   - capture_rejection(): the pure capture + shrink algorithm, driven
//     by VerificationSession::apply() on an accept -> reject flip and
//     surfaced via VerificationSession::last_rejection().
//
// Everything here is read-only over the session's state: verdicts, proof
// labels, and fingerprints are bit-identical with forensics on or off.
#ifndef LCP_OBS_FORENSICS_HPP_
#define LCP_OBS_FORENSICS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/proof.hpp"
#include "core/verifier.hpp"
#include "core/view.hpp"
#include "graph/graph.hpp"
#include "obs/journal.hpp"

namespace lcp::obs {

struct ForensicsOptions {
  /// Witness views captured per report (newly rejecting centres first).
  std::size_t max_witnesses = 8;
  /// Journal events retained in the report's black-box window.
  std::size_t max_journal_window = 64;
  /// Verifier sweep budget for the greedy batch shrink; when exhausted
  /// the current (still-rejecting) candidate is reported as minimal.
  std::size_t max_shrink_evals = 256;
  /// Repair batches remembered per session for the report's history.
  std::size_t max_repair_history = 32;
};

/// One rejecting centre and the exact local evidence: the radius-r view
/// the verifier rejected.  Self-contained — re-verifying `view` under the
/// same verifier must reject, regardless of engine or session state.
struct RejectionWitness {
  int center = -1;
  bool newly_rejecting = false;  ///< accepted before this batch
  View view;
};

/// One entry of the session's recent repair log (most recent last).
struct RepairHistoryEntry {
  std::uint64_t batch_index = 0;  ///< session apply() ordinal
  std::string maintainer;
  std::size_t ops = 0;               ///< repair ops emitted for that batch
  std::size_t ops_on_rejecting = 0;  ///< of those, ops touching a now-
                                     ///< rejecting centre
};

/// The full forensic record of one accept -> reject flip.
struct RejectionReport {
  // Context (filled by the session).
  std::uint64_t batch_index = 0;  ///< apply() ordinal that flipped
  std::uint64_t generation = 0;   ///< tracker generation after the batch
  std::string scheme;
  std::string engine;
  int radius = 0;

  // Verdict attribution.
  std::vector<int> rejecting;
  /// Empty when the session had no earlier verdict to diff against.
  std::vector<int> newly_rejecting;
  std::vector<RejectionWitness> witnesses;

  // The offending window.
  MutationBatch mutation_batch;  ///< the caller's batch, as applied
  MutationBatch repair_batch;    ///< the maintainer's response (may be empty)
  /// Greedy shrink result: a minimal sub-batch that still rejects when
  /// plain-applied to the pre-flip state.  When `raw_batch_rejects`, the
  /// shrink ran over the mutation ops alone (the caller's batch is at
  /// fault); otherwise over mutation + repair ops together (the repair is
  /// implicated) and the op count is measured against that union.
  MutationBatch minimal_batch;
  bool raw_batch_rejects = false;
  std::uint64_t shrink_evals = 0;  ///< verifier sweeps spent shrinking

  std::vector<RepairHistoryEntry> repair_history;
  std::vector<JournalEvent> journal_window;

  /// One JSON object (schema validated by tools/check_telemetry.py).
  std::string to_json() const;
};

/// Plain (tracker-free) application of a batch to state copies: the
/// shrink predicate's world model.  Returns false — leaving *g / *p in an
/// unspecified but safe state — when an op cannot apply (references a
/// missing edge/node, duplicates an id); callers must then discard the
/// copies.  Kept public for the fuzz tests.
bool apply_plain(const MutationBatch& batch, Graph* g, Proof* p);

/// Captures a report from one flip.  `pre_*` is the state before the
/// offending mutation batch, `post_*` the state the engine rejected
/// (pre + applied + repair); `result` is the rejecting RunResult.
/// Context fields (batch_index, scheme, ...), repair_history, and
/// journal_window are left for the caller.  Runs O(max_shrink_evals)
/// sequential sweeps over pre-state copies; touches no engine state.
RejectionReport capture_rejection(const Graph& pre_graph,
                                  const Proof& pre_proof,
                                  const Graph& post_graph,
                                  const Proof& post_proof,
                                  const LocalVerifier& verifier,
                                  const RunResult& result,
                                  const MutationBatch& applied,
                                  const MutationBatch& repair,
                                  const ForensicsOptions& options = {});

}  // namespace lcp::obs

#endif  // LCP_OBS_FORENSICS_HPP_
