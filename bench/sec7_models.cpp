// Section 7.1: LogLCP is robust across models — unique identifiers (M1)
// versus port numbering + leader (M2) — at an O(log n) translation cost.
// Section 3.2: the Korman et al. PLS model is strictly weaker (agreement).
// Exits 1 on any "(bug)" outcome or any honest proof rejected, so CI fails
// on a broken reproduction.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "local/pls_model.hpp"
#include "local/port_model.hpp"
#include "schemes/agreement.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

/// Counts a failed check in the exit status and passes `ok` through.
bool check(bool ok) {
  if (!ok) ++bench::failed_rows();
  return ok;
}

void translation_table() {
  std::printf("M1 -> M2 translation (Section 7.1): parity of n, certified\n"
              "with ports + leader only, via DFS-interval synthetic ids.\n\n");
  std::printf("  %-6s %-18s %-22s %s\n", "n", "M1 proof (bits)",
              "M2 translated (bits)", "verified");
  const auto inner = std::make_shared<schemes::ParityScheme>(true);
  const M1ToM2Scheme translated(inner);
  for (int n : {9, 17, 33, 65, 129, 257}) {
    Graph g = gen::cycle(n);
    g.set_label(0, kLeaderLabel);
    const auto inner_proof = inner->prove(g);
    const auto outer_proof = translated.prove(g);
    const bool ok = check(
        outer_proof.has_value() &&
        default_engine().run(g, *outer_proof, translated.verifier()).all_accept);
    std::printf("  %-6d %-18d %-22d %s\n", n,
                inner_proof.has_value() ? inner_proof->size_bits() : -1,
                outer_proof.has_value() ? outer_proof->size_bits() : -1,
                ok ? "all nodes accept" : "REJECTED");
  }
  std::printf("\n  The overhead (spanning-tree certificate + DFS intervals) "
              "is O(log n):\n  both columns grow by a constant per doubling "
              "of n.\n\n");
}

void round_trip_table() {
  std::printf("Round trip M1 -> M2 -> M1 (parity of n on unlabelled "
              "graphs):\n");
  std::printf("  %-6s %-14s %s\n", "n", "bits", "verified");
  const auto scheme = std::make_shared<M2ToM1Scheme>(
      std::make_shared<M1ToM2Scheme>(
          std::make_shared<schemes::ParityScheme>(true)));
  for (int n : {9, 33, 129}) {
    const Graph g = gen::cycle(n);
    const auto proof = scheme->prove(g);
    const bool ok = check(
        proof.has_value() &&
        default_engine().run(g, *proof, scheme->verifier()).all_accept);
    std::printf("  %-6d %-14d %s\n", n,
                proof.has_value() ? proof->size_bits() : -1,
                ok ? "all nodes accept" : "REJECTED");
  }
  std::printf("  Two stacked translations still cost only O(log n): the "
              "class LogLCP is model-robust.\n\n");
}

void id_blindness() {
  std::printf("Identifier blindness: multiplying every id by 17 (order-\n"
              "preserving, so ports are unchanged) must not change any M2 "
              "verdict.\n");
  const M1ToM2Scheme translated(std::make_shared<schemes::ParityScheme>(true));
  Graph g = gen::random_connected(15, 0.25, 11);
  g.set_label(3, kLeaderLabel);
  const auto proof = translated.prove(g);
  std::vector<NodeId> ids = g.ids();
  for (NodeId& id : ids) id = id * 17 + 3;
  const Graph h = gen::with_ids(g, ids);
  const bool same = check(
      proof.has_value() &&
      default_engine().run(h, *proof, translated.verifier()).all_accept);
  std::printf("  verdict unchanged: %s\n\n", same ? "yes" : "NO (bug)");
}

void pls_separation() {
  std::printf("Section 3.2 separation: agreement ('all inputs equal').\n");
  Graph same = gen::cycle(24);
  for (int v = 0; v < 24; ++v) same.set_label(v, 1);
  Graph mixed = gen::cycle(24);
  for (int v = 0; v < 12; ++v) mixed.set_label(v, 1);

  const schemes::AgreementScheme lcp_scheme;
  const auto lcp_proof = lcp_scheme.prove(same);
  const bool lcp_yes_accepted = check(
      default_engine().run(same, *lcp_proof, lcp_scheme.verifier()).all_accept);
  const bool lcp_no_rejected = check(
      !default_engine()
           .run(mixed, Proof::empty(24), lcp_scheme.verifier())
           .all_accept);
  std::printf("  LCP model:  proof size %d bits; yes-instance %s, "
              "no-instance %s\n",
              lcp_proof->size_bits(),
              lcp_yes_accepted ? "accepted" : "rejected",
              lcp_no_rejected ? "rejected" : "ACCEPTED (bug)");

  const schemes::PlsAgreementScheme pls;
  const Proof pls_proof = pls.prove(same);
  bool mixed_accepted_somehow = false;
  for (int mask = 0; mask < (1 << 24) && mask < (1 << 16); ++mask) {
    // sample the proof space: all 2^16 prefixes x zero suffix
    Proof p = Proof::empty(24);
    for (int v = 0; v < 24; ++v) {
      p.labels[static_cast<std::size_t>(v)].append_bit((mask >> (v % 16)) & 1);
    }
    if (run_pls_verifier(mixed, p, pls).all_accept) {
      mixed_accepted_somehow = true;
      break;
    }
  }
  const bool pls_yes_accepted =
      check(run_pls_verifier(same, pls_proof, pls).all_accept);
  check(!mixed_accepted_somehow);
  std::printf("  PLS model:  proof size %d bit; yes-instance %s; mixed "
              "instance fooled by any sampled 1-bit proof: %s\n",
              pls_proof.size_bits(),
              pls_yes_accepted ? "accepted" : "rejected",
              mixed_accepted_somehow ? "YES (bug)" : "no");
  std::printf("  => 0 bits in LCP vs 1 bit in PLS: the LCP model strictly\n"
              "     generalises locally checkable labellings, the PLS model "
              "does not.\n");
}

}  // namespace
}  // namespace lcp

int main() {
  lcp::bench::heading(
      "Section 7.1 / 3.2 - model robustness and model separation");
  lcp::translation_table();
  lcp::round_trip_table();
  lcp::id_blindness();
  lcp::pls_separation();
  lcp::bench::rule();
  return lcp::bench::table_exit_status();
}
