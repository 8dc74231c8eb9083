// Scenario: an assignment market (workers x jobs, integer valuations)
// clears a max-weight matching, and every participant wants to verify
// optimality *locally* — seeing only its own dual price and its
// neighbours'.  This is Section 2.3's LP-duality scheme: O(log W) bits
// per node, verified by feasibility + complementary slackness.
#include <cstdio>
#include <random>

#include "algo/bipartite.hpp"
#include "algo/matching.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "schemes/matching_schemes.hpp"

int main() {
  using namespace lcp;
  SweepEngine engine(1);  // the execution backend for every audit below
  using schemes::MaxWeightMatchingScheme;

  // 6 workers, 6 jobs, valuations 0..9.
  constexpr int kWorkers = 6;
  constexpr std::int64_t kMaxValue = 9;
  Graph market = gen::complete_bipartite(kWorkers, kWorkers);
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> value(0, static_cast<int>(kMaxValue));
  for (int e = 0; e < market.m(); ++e) market.set_edge_weight(e, value(rng));

  // Clear the market (any exact solver; here brute force for clarity).
  std::vector<bool> assignment;
  const std::int64_t welfare =
      max_weight_matching_bruteforce(market, &assignment);
  for (int e = 0; e < market.m(); ++e) {
    if (assignment[static_cast<std::size_t>(e)]) {
      market.set_edge_label(e, MaxWeightMatchingScheme::kMatchedBit);
    }
  }
  std::printf("market cleared: total welfare %lld\n",
              static_cast<long long>(welfare));

  // Publish dual prices as the certificate.
  const MaxWeightMatchingScheme scheme(kMaxValue);
  const Proof prices = *scheme.prove(market);
  std::printf("certificate: %d bits per participant (log W = %d)\n",
              prices.size_bits(), bit_width_for(kMaxValue));
  const auto side = *two_coloring(market);
  std::int64_t price_sum = 0;
  for (int v = 0; v < market.n(); ++v) {
    BitReader r(prices.labels[static_cast<std::size_t>(v)]);
    const auto price = r.read_uint(prices.size_bits());
    price_sum += static_cast<std::int64_t>(price);
    std::printf("  %s %llu: dual price %llu\n",
                side[static_cast<std::size_t>(v)] == 0 ? "worker" : "job   ",
                static_cast<unsigned long long>(market.id(v)),
                static_cast<unsigned long long>(price));
  }
  std::printf("sum of prices = %lld = welfare (strong duality)\n",
              static_cast<long long>(price_sum));

  std::printf("local verification: %s\n",
              engine.run(market, prices, scheme.verifier()).all_accept
                  ? "every participant confirms optimality"
                  : "ALARM");

  // A participant tries to sneak a better deal: swap one matched edge for
  // an unmatched one it prefers.  Someone's slackness check fires.
  Graph tampered = market;
  int dropped = -1;
  for (int e = 0; e < tampered.m() && dropped < 0; ++e) {
    if (tampered.edge_label(e) & MaxWeightMatchingScheme::kMatchedBit) {
      tampered.set_edge_label(e, 0);
      dropped = e;
    }
  }
  const RunResult r = engine.run(tampered, prices, scheme.verifier());
  std::printf("after dropping one assignment: %zu participant(s) object\n",
              r.rejecting.size());
  return 0;
}
