#include "core/checker.hpp"

#include <random>
#include <stdexcept>

#include "core/delta.hpp"
#include "core/incremental.hpp"

namespace lcp {

namespace {

/// All bit strings with length 0..max_bits, in a fixed order.
std::vector<BitString> all_labels(int max_bits) {
  std::vector<BitString> out;
  out.emplace_back();  // the empty label
  for (int len = 1; len <= max_bits; ++len) {
    for (std::uint64_t value = 0; value < (1ull << len); ++value) {
      BitString b;
      b.append_uint(value, len);
      out.push_back(std::move(b));
    }
  }
  return out;
}

}  // namespace

bool exists_accepted_proof(const Graph& g, const LocalVerifier& verifier,
                           int max_bits) {
  // Dirty-ball enumeration: consecutive odometer candidates differ in a
  // handful of (low-position) labels, so only the centres seeing those
  // labels are re-verified per candidate.  verify_state is off: within
  // this function the proof is provably mutated only through the tracker,
  // and the per-candidate fingerprint walk would otherwise dominate the
  // O(dirty-ball) work on tiny instances.
  IncrementalEngine engine({.verify_state = false});
  return exists_accepted_proof(g, verifier, max_bits, engine);
}

bool exists_accepted_proof(const Graph& g, const LocalVerifier& verifier,
                           int max_bits, ExecutionEngine& engine) {
  const std::vector<BitString> labels = all_labels(max_bits);
  const std::size_t base = labels.size();
  double combos = 1;
  for (int v = 0; v < g.n(); ++v) combos *= static_cast<double>(base);
  if (combos > 5e7) {
    throw std::invalid_argument("exists_accepted_proof: search too large");
  }

  // The odometer advances through the delta API: each step's changed
  // positions become one MutationBatch, so delta-aware engines re-verify
  // only the balls around them.  Other engines see plain mutations and
  // full-sweep as before.
  Proof proof = Proof::empty(g.n());  // all empty == labels[0] everywhere
  DeltaTracker tracker(g, proof, verifier.radius());
  const TrackerAttachment attachment(engine, tracker);

  std::vector<std::size_t> odometer(static_cast<std::size_t>(g.n()), 0);
  MutationBatch batch;
  while (true) {
    if (engine.run(g, proof, verifier).all_accept) return true;
    // Advance the odometer.
    int pos = 0;
    batch.clear();
    while (pos < g.n()) {
      std::size_t& digit = odometer[static_cast<std::size_t>(pos)];
      if (++digit < base) {
        batch.set_proof_label(pos, labels[digit]);
        break;
      }
      digit = 0;
      batch.set_proof_label(pos, labels[0]);
      ++pos;
    }
    if (pos == g.n()) break;
    tracker.apply(batch);
  }
  return false;
}

std::vector<Proof> tampered_variants(const Proof& proof, int limit,
                                     std::uint32_t seed) {
  std::vector<Proof> out;
  const int n = static_cast<int>(proof.labels.size());
  auto push = [&out, limit](Proof p) {
    if (static_cast<int>(out.size()) < limit) out.push_back(std::move(p));
  };

  // Single bit flips.
  for (int v = 0; v < n && static_cast<int>(out.size()) < limit; ++v) {
    const BitString& label = proof.labels[static_cast<std::size_t>(v)];
    for (int i = 0; i < label.size(); ++i) {
      Proof p = proof;
      BitString flipped;
      for (int j = 0; j < label.size(); ++j) {
        flipped.append_bit(j == i ? !label.bit(j) : label.bit(j));
      }
      p.labels[static_cast<std::size_t>(v)] = std::move(flipped);
      push(std::move(p));
    }
  }
  // Label clears and truncations.
  for (int v = 0; v < n && static_cast<int>(out.size()) < limit; ++v) {
    const BitString& label = proof.labels[static_cast<std::size_t>(v)];
    if (label.size() == 0) continue;
    Proof cleared = proof;
    cleared.labels[static_cast<std::size_t>(v)] = BitString{};
    push(std::move(cleared));
    Proof truncated = proof;
    truncated.labels[static_cast<std::size_t>(v)] =
        BitReader(label).read_bits(label.size() / 2);
    push(std::move(truncated));
  }
  // Random pairwise label swaps.
  std::mt19937 rng(seed);
  if (n >= 2) {
    std::uniform_int_distribution<int> node(0, n - 1);
    for (int trial = 0;
         trial < 4 * n && static_cast<int>(out.size()) < limit; ++trial) {
      const int a = node(rng);
      const int b = node(rng);
      if (a == b ||
          proof.labels[static_cast<std::size_t>(a)] ==
              proof.labels[static_cast<std::size_t>(b)]) {
        continue;
      }
      Proof p = proof;
      std::swap(p.labels[static_cast<std::size_t>(a)],
                p.labels[static_cast<std::size_t>(b)]);
      push(std::move(p));
    }
  }
  return out;
}

}  // namespace lcp
