// A synchronous message-passing execution backend for local verifiers.
//
// The paper treats a local verifier as a constant-time distributed
// algorithm: a horizon-r verifier runs in r synchronous rounds (Peleg's
// LOCAL model).  This backend performs the rounds explicitly: every node
// starts knowing only itself (id, input label, proof label, incident edges)
// and floods its knowledge for r rounds, after which it assembles its view
// and decides.  Tests assert the verdicts coincide with the direct
// ball-extraction backend on every node — the two definitions of locality
// agree.
#ifndef LCP_LOCAL_MESSAGE_PASSING_HPP_
#define LCP_LOCAL_MESSAGE_PASSING_HPP_

#include <string>

#include "core/engine.hpp"
#include "core/proof.hpp"
#include "core/runner.hpp"
#include "core/verifier.hpp"
#include "graph/graph.hpp"

namespace lcp {

/// Runs the verifier by explicit rounds of knowledge exchange.
RunResult run_verifier_message_passing(const Graph& g, const Proof& p,
                                       const LocalVerifier& a);

/// ExecutionEngine adapter over the flooding backend.  Stateless (no
/// caches).  Exists so the LOCAL-model semantics plug into everything
/// written against the engine interface (equivalence corpus, benches,
/// attack drivers).
class MessagePassingEngine final : public ExecutionEngine {
 public:
  std::string name() const override { return "message-passing"; }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override {
    return run_verifier_message_passing(g, p, a);
  }
};

/// The view node v assembles after `radius` flooding rounds.  Exposed for
/// the equivalence tests.
View assemble_view_by_flooding(const Graph& g, const Proof& p, int v,
                               int radius);

}  // namespace lcp

#endif  // LCP_LOCAL_MESSAGE_PASSING_HPP_
