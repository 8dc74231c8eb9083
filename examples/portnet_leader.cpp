// Scenario: a sensor network whose nodes have NO unique identifiers —
// only locally numbered ports and one designated gateway (the paper's M2
// model, Section 7.1).  Can such a network still verify a LogLCP property?
//
// Yes: the translation synthesises unique ids from DFS discovery/finish
// intervals on a certified spanning tree, then runs the id-based verifier
// on them.  We certify "the network has an odd number of sensors" end to
// end in the port model.
#include <cstdio>
#include <memory>

#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "local/port_model.hpp"
#include "schemes/tree_certified.hpp"

int main() {
  using namespace lcp;
  SweepEngine engine(1);  // the execution backend for every audit below

  Graph net = gen::random_connected(21, 0.15, 99);
  net.set_label(5, kLeaderLabel);  // the gateway
  std::printf("sensor network: %d nodes, %d links, gateway at node %llu\n",
              net.n(), net.m(),
              static_cast<unsigned long long>(net.id(5)));

  const auto inner = std::make_shared<schemes::ParityScheme>(true);
  const M1ToM2Scheme scheme(inner);
  std::printf("property: '%s' (n = %d, odd) -- %s\n", inner->name().c_str(),
              net.n(), scheme.holds(net) ? "holds" : "does not hold");

  const Proof proof = *scheme.prove(net);
  std::printf("port-model certificate: %d bits per sensor\n",
              proof.size_bits());
  std::printf("  (spanning-tree certificate + DFS interval [x,y] + the "
              "id-based inner proof)\n");

  const RunResult r = engine.run(net, proof, scheme.verifier());
  std::printf("verification (ports only, ids hidden): %s\n",
              r.all_accept ? "all sensors accept" : "ALARM");

  // The ids really are irrelevant: re-id the whole network (order-
  // preserving so ports stay put) and verify the same certificate.
  std::vector<NodeId> ids = net.ids();
  for (NodeId& id : ids) id = id * 1000 + 17;
  const Graph renamed = gen::with_ids(net, ids);
  std::printf("same certificate after re-identifying every sensor: %s\n",
              engine.run(renamed, proof, scheme.verifier()).all_accept
                  ? "still accepted"
                  : "rejected (bug)");

  // Grow the network by one sensor: parity flips, the world must object.
  Graph grown = net;
  const int extra = grown.add_node(500);
  grown.add_edge(extra, 0);
  const RunResult alarm = engine.run(grown, [&] {
        Proof p = proof;
        p.labels.push_back(BitString{});
        return p;
      }(), scheme.verifier());
  std::printf("after one sensor joins (n even): %zu sensor(s) object\n",
              alarm.rejecting.size());
  return 0;
}
