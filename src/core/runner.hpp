// Executing a local verifier over a whole graph.
//
// Acceptance semantics (Section 1): on a yes-instance all nodes must output
// 1; on a no-instance at least one node must output 0.
//
// The sweep itself is performed by an ExecutionEngine (core/engine.hpp):
// hold a SweepEngine (or an IncrementalEngine, to re-verify under small
// changes) and call run(), or use default_engine() for one-off stateless
// sweeps.  The old
// run_verifier(g, p, a) compatibility shim is gone — it was a strict alias
// of default_engine().run(g, p, a).  Callers that want the whole
// scheme-plus-runtime stack wired up should build a VerificationSession
// (core/session.hpp) instead.
#ifndef LCP_CORE_RUNNER_HPP_
#define LCP_CORE_RUNNER_HPP_

#include "core/engine.hpp"
#include "core/proof.hpp"
#include "core/scheme.hpp"
#include "core/verifier.hpp"
#include "graph/graph.hpp"

namespace lcp {

/// True when the scheme's own proof for a yes-instance is accepted by all
/// nodes (the completeness half of the LCP definition).
bool scheme_accepts_own_proof(const Scheme& scheme, const Graph& g);

/// As above, through an explicit engine.
bool scheme_accepts_own_proof(const Scheme& scheme, const Graph& g,
                              ExecutionEngine& engine);

}  // namespace lcp

#endif  // LCP_CORE_RUNNER_HPP_
