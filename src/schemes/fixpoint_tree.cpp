#include "schemes/fixpoint_tree.hpp"

#include <algorithm>

#include "algo/trees.hpp"

namespace lcp::schemes {

namespace {

constexpr int kPositionBits = 20;

struct TreeLabel {
  BitString structure;
  int position = 0;
};

std::optional<TreeLabel> read_tree_label(const BitString& label) {
  if (label.size() < kPositionBits) return std::nullopt;
  TreeLabel out;
  BitReader r(label);
  out.structure = r.read_bits(label.size() - kPositionBits);
  out.position = static_cast<int>(r.read_uint(kPositionBits));
  return out;
}

}  // namespace

FixpointFreeTreeScheme::FixpointFreeTreeScheme() {
  verifier_ = std::make_unique<LambdaVerifier>(1, [](const View& v) {
    const auto mine = read_tree_label(v.proof_of(v.center));
    if (!mine.has_value()) return false;
    const auto children = decode_tree(mine->structure);
    if (!children.has_value()) return false;
    const int k = static_cast<int>(children->size());
    if (mine->position < 0 || mine->position >= k) return false;
    const std::vector<int> parents = tree_parents_from_children(*children);

    // My neighbours' claimed positions must be exactly my decoded parent
    // and children (and they must carry the identical structure).
    std::vector<int> expected;
    if (parents[static_cast<std::size_t>(mine->position)] >= 0) {
      expected.push_back(parents[static_cast<std::size_t>(mine->position)]);
    }
    for (int c : (*children)[static_cast<std::size_t>(mine->position)]) {
      expected.push_back(c);
    }
    std::sort(expected.begin(), expected.end());

    std::vector<int> actual;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      const auto other = read_tree_label(v.proof_of(h.to));
      if (!other.has_value() || !(other->structure == mine->structure)) {
        return false;
      }
      actual.push_back(other->position);
    }
    std::sort(actual.begin(), actual.end());
    if (actual != expected) return false;

    // Evaluate the property on the decoded tree (unrestricted local
    // computation).  Positions are preorder indices; rebuild the graph.
    Graph decoded;
    for (int i = 0; i < k; ++i) decoded.add_node(static_cast<NodeId>(i + 1));
    for (int p = 0; p < k; ++p) {
      for (int c : (*children)[static_cast<std::size_t>(p)]) {
        decoded.add_edge(p, c);
      }
    }
    return tree_fixpoint_free_symmetry(decoded);
  });
}

bool FixpointFreeTreeScheme::holds(const Graph& g) const {
  return is_tree(g) && tree_fixpoint_free_symmetry(g);
}

std::optional<Proof> FixpointFreeTreeScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const CanonicalTree canon = canonize_tree(g);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    BitString label = canon.structure;
    label.append_uint(
        static_cast<std::uint64_t>(canon.position[static_cast<std::size_t>(v)]),
        kPositionBits);
    proof.labels[static_cast<std::size_t>(v)] = std::move(label);
  }
  return proof;
}

}  // namespace lcp::schemes
