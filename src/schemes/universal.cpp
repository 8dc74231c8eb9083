#include "schemes/universal.hpp"

#include <algorithm>

#include "algo/coloring.hpp"
#include "algo/isomorphism.hpp"
#include "algo/traversal.hpp"

namespace lcp::schemes {

namespace {

constexpr int kWidthBits = 6;
constexpr int kCountBits = 20;

struct Decoded {
  int width = 0;
  int n = 0;
  std::vector<NodeId> ids;
  std::vector<std::vector<bool>> matrix;
  int index = 0;
  /// Bits of the label *before* the per-node index (the common part).
  BitString common;
};

std::optional<Decoded> decode_label(const BitString& label) {
  BitReader r(label);
  Decoded d;
  d.width = static_cast<int>(r.read_uint(kWidthBits));
  d.n = static_cast<int>(r.read_uint(kCountBits));
  if (!r.ok() || d.n <= 0 || d.n > 4096) return std::nullopt;
  d.ids.resize(static_cast<std::size_t>(d.n));
  for (NodeId& id : d.ids) id = r.read_uint(d.width);
  d.matrix.assign(static_cast<std::size_t>(d.n),
                  std::vector<bool>(static_cast<std::size_t>(d.n), false));
  for (int i = 0; i < d.n; ++i) {
    for (int j = 0; j < d.n; ++j) {
      d.matrix[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          r.read_bit();
    }
  }
  d.index = static_cast<int>(r.read_uint(kCountBits));
  if (!r.exhausted()) return std::nullopt;
  if (d.index < 0 || d.index >= d.n) return std::nullopt;
  // Ids must be strictly increasing: a canonical, duplicate-free encoding.
  for (int i = 0; i + 1 < d.n; ++i) {
    if (d.ids[static_cast<std::size_t>(i)] >=
        d.ids[static_cast<std::size_t>(i + 1)]) {
      return std::nullopt;
    }
  }
  // Reconstruct the common part for neighbour-agreement comparison.
  d.common = BitReader(label).read_bits(label.size() - kCountBits);
  return d;
}

Graph graph_from(const Decoded& d) {
  Graph g;
  for (int v = 0; v < d.n; ++v) g.add_node(d.ids[static_cast<std::size_t>(v)]);
  for (int i = 0; i < d.n; ++i) {
    for (int j = i + 1; j < d.n; ++j) {
      if (d.matrix[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        g.add_edge(i, j);
      }
    }
  }
  return g;
}

}  // namespace

BitString UniversalScheme::full_label(const Graph& g, int v) {
  const int width = bit_width_for(g.max_id());
  // Sorted ids; node v's index is its id's rank.
  std::vector<NodeId> ids = g.ids();
  std::sort(ids.begin(), ids.end());
  std::vector<int> rank(static_cast<std::size_t>(g.n()));
  for (int u = 0; u < g.n(); ++u) {
    rank[static_cast<std::size_t>(u)] = static_cast<int>(
        std::lower_bound(ids.begin(), ids.end(), g.id(u)) - ids.begin());
  }
  BitString label;
  label.append_uint(static_cast<std::uint64_t>(width), kWidthBits);
  label.append_uint(static_cast<std::uint64_t>(g.n()), kCountBits);
  for (NodeId id : ids) label.append_uint(id, width);
  std::vector<std::vector<bool>> matrix(
      static_cast<std::size_t>(g.n()),
      std::vector<bool>(static_cast<std::size_t>(g.n()), false));
  for (int e = 0; e < g.m(); ++e) {
    const int i = rank[static_cast<std::size_t>(g.edge_u(e))];
    const int j = rank[static_cast<std::size_t>(g.edge_v(e))];
    matrix[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
    matrix[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = true;
  }
  for (int i = 0; i < g.n(); ++i) {
    for (int j = 0; j < g.n(); ++j) {
      label.append_bit(
          matrix[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  label.append_uint(static_cast<std::uint64_t>(rank[static_cast<std::size_t>(v)]),
                    kCountBits);
  return label;
}

UniversalScheme::UniversalScheme(std::string property_name,
                                 Predicate predicate, int trunc_bits)
    : property_name_(std::move(property_name)),
      predicate_(std::move(predicate)),
      trunc_bits_(trunc_bits) {
  auto predicate_keep = predicate_;
  const int trunc = trunc_bits_;
  verifier_ = std::make_unique<LambdaVerifier>(
      1, [predicate_keep, trunc](const View& v) {
        if (trunc > 0) {
          // Truncated variant: only prefix agreement is checkable.  When
          // the full structure happens to fit, fall through to the sound
          // checks; otherwise accept on agreement (the soundness hole).
          const BitString& mine = v.proof_of(v.center);
          if (mine.size() > trunc) return false;
          const auto full = decode_label(mine);
          if (!full.has_value()) {
            // Compare only the common part (everything before the per-node
            // index); its extent is computable from the label header.
            int common_limit = mine.size();
            if (mine.size() >= kWidthBits + kCountBits) {
              BitReader r(mine);
              const int width = static_cast<int>(r.read_uint(kWidthBits));
              const long long n =
                  static_cast<long long>(r.read_uint(kCountBits));
              common_limit = static_cast<int>(
                  std::min<long long>(mine.size(),
                                      kWidthBits + kCountBits + n * width +
                                          n * n));
            }
            for (const HalfEdge& h : v.ball.neighbors(v.center)) {
              const BitString& other = v.proof_of(h.to);
              const int overlap =
                  std::min({mine.size(), other.size(), common_limit});
              for (int i = 0; i < overlap; ++i) {
                if (mine.bit(i) != other.bit(i)) return false;
              }
            }
            return true;
          }
          // fall through to sound checks with the decoded structure
        }
        const auto mine = decode_label(v.proof_of(v.center));
        if (!mine.has_value()) return false;
        // My id at my claimed index.
        if (mine->ids[static_cast<std::size_t>(mine->index)] !=
            v.ball.id(v.center)) {
          return false;
        }
        // Neighbour agreement on the common part.
        for (const HalfEdge& h : v.ball.neighbors(v.center)) {
          const auto other = decode_label(v.proof_of(h.to));
          if (!other.has_value() || !(other->common == mine->common)) {
            return false;
          }
        }
        // My matrix row equals my actual neighbourhood (as id sets).
        std::vector<NodeId> actual;
        for (const HalfEdge& h : v.ball.neighbors(v.center)) {
          actual.push_back(v.ball.id(h.to));
        }
        std::sort(actual.begin(), actual.end());
        std::vector<NodeId> claimed;
        for (int j = 0; j < mine->n; ++j) {
          if (mine->matrix[static_cast<std::size_t>(mine->index)]
                          [static_cast<std::size_t>(j)]) {
            claimed.push_back(mine->ids[static_cast<std::size_t>(j)]);
          }
        }
        if (actual != claimed) return false;
        // Structural sanity: symmetric, loop-free, connected.
        for (int i = 0; i < mine->n; ++i) {
          if (mine->matrix[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(i)]) {
            return false;
          }
          for (int j = 0; j < mine->n; ++j) {
            if (mine->matrix[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(j)] !=
                mine->matrix[static_cast<std::size_t>(j)]
                            [static_cast<std::size_t>(i)]) {
              return false;
            }
          }
        }
        const Graph decoded = graph_from(*mine);
        if (!is_connected(decoded)) return false;
        // Unlimited local computation: evaluate the property brute-force.
        return predicate_keep(decoded);
      });
}

std::string UniversalScheme::name() const {
  return trunc_bits_ == 0
             ? "universal(" + property_name_ + ")"
             : "universal(" + property_name_ + ")/b=" +
                   std::to_string(trunc_bits_);
}

bool UniversalScheme::holds(const Graph& g) const {
  return is_connected(g) && predicate_(g);
}

std::optional<Proof> UniversalScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    BitString label = full_label(g, v);
    if (trunc_bits_ > 0 && label.size() > trunc_bits_) {
      label = BitReader(label).read_bits(trunc_bits_);
    }
    proof.labels[static_cast<std::size_t>(v)] = std::move(label);
  }
  return proof;
}

int UniversalScheme::advertised_size(int n) const {
  if (trunc_bits_ > 0) return trunc_bits_;
  const int width = bit_width_for(static_cast<std::uint64_t>(4 * n));
  return kWidthBits + 2 * kCountBits + n * width + n * n;
}

std::shared_ptr<Scheme> make_symmetric_graph_scheme(int trunc_bits) {
  return std::make_shared<UniversalScheme>(
      "symmetric",
      [](const Graph& g) { return has_nontrivial_automorphism(g); },
      trunc_bits);
}

std::shared_ptr<Scheme> make_non_3_colorable_scheme(int trunc_bits) {
  return std::make_shared<UniversalScheme>(
      "non-3-colorable",
      [](const Graph& g) { return !k_coloring(g, 3).has_value(); },
      trunc_bits);
}

}  // namespace lcp::schemes
