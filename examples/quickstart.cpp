// Quickstart: the locally-checkable-proofs workflow in 60 lines.
//
//   1. build a labelled communication graph;
//   2. pick a scheme (here: bipartiteness, the paper's 1-bit example);
//   3. run the prover to obtain a per-node proof;
//   4. run the constant-radius verifier at every node through an
//      ExecutionEngine (direct, message-passing, or parallel backend);
//   5. watch a corrupted proof get caught by some node;
//   6. do all of the above in two lines with the VerificationSession
//      facade — including a conjunction scheme composed by name.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/example_quickstart
#include <cstdio>

#include "core/checker.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "schemes/lcp_const.hpp"

int main() {
  using namespace lcp;

  // A 6-cycle: bipartite, so a yes-instance.
  const Graph g = gen::cycle(6);
  const schemes::BipartiteScheme scheme;

  std::printf("graph: %s", g.to_string().c_str());
  std::printf("property '%s' holds: %s\n", scheme.name().c_str(),
              scheme.holds(g) ? "yes" : "no");

  // The prover hands every node one bit: its side of the 2-colouring.
  const Proof proof = *scheme.prove(g);
  std::printf("proof size: %d bit(s) per node\n", proof.size_bits());
  for (int v = 0; v < g.n(); ++v) {
    std::printf("  node id %llu  proof \"%s\"\n",
                static_cast<unsigned long long>(g.id(v)),
                proof.labels[static_cast<std::size_t>(v)].to_string().c_str());
  }

  // Every node checks only its radius-1 view.  The sweep over all nodes is
  // an ExecutionEngine; a one-thread SweepEngine is the default backend.
  SweepEngine engine(1);
  const RunResult verdict = engine.run(g, proof, scheme.verifier());
  std::printf("verifier: %s\n",
              verdict.all_accept ? "all nodes accept" : "rejected");

  // ...and even a single flipped bit is caught by somebody.
  Proof corrupted = proof;
  corrupted.labels[2] = BitString::from_string(
      corrupted.labels[2].bit(0) ? "0" : "1");
  const RunResult caught = engine.run(g, corrupted, scheme.verifier());
  std::printf("after flipping node 3's bit: %zu node(s) raise the alarm\n",
              caught.rejecting.size());

  // Every backend produces the same verdicts; pick one by name.
  for (const char* backend : {"direct", "message-passing", "parallel"}) {
    const RunResult r = make_engine(backend)->run(g, corrupted,
                                                  scheme.verifier());
    std::printf("  %-16s engine: %zu alarm(s)\n", backend,
                r.rejecting.size());
  }

  // No-instances have NO valid proof at all: exhaustively checked.
  const Graph odd = gen::cycle(5);
  std::printf("C5 (an odd cycle): any 1-bit proof accepted? %s\n",
              exists_accepted_proof(odd, scheme.verifier(), 1) ? "yes (bug!)"
                                                               : "no");

  // The VerificationSession facade wires the same stack up by name, and
  // '&' composes registered schemes into a conjunction (proofs
  // concatenate, verdicts AND, evaluated at the max component radius).
  auto session = VerificationSession::on(gen::cycle(6))
                     .scheme("bipartite & even-n-cycles")
                     .engine(EngineKind::kDirect)
                     .build();
  std::printf("session['%s'] on C6: %s\n", session.scheme().name().c_str(),
              session.verify().all_accept ? "all nodes accept"
                                          : "rejected");
  return 0;
}
