// Reusable certificate components.
//
// The spanning-tree certificate of Korman-Kutten-Peleg (Section 5.1) is the
// workhorse of the LogLCP upper bounds: a root identity plus distances lets
// a radius-2 verifier confirm a globally consistent rooted spanning tree,
// and subtree counters let the root certify n(G).  Leader election,
// spanning trees, odd-n, Hamiltonian cycles, non-bipartiteness and the
// coLCP(0) adapter all build on it.
//
// Every field can be stored *truncated* to b bits (values mod 2^b).  The
// truncated certificate is still complete — honest proofs keep verifying —
// but it is no longer sound, which is exactly the attack surface that the
// Section 5 lower-bound experiments exploit: for b < ~log2 n the gluing
// adversary forges accepted no-instances.
#ifndef LCP_CORE_CERTIFICATES_HPP_
#define LCP_CORE_CERTIFICATES_HPP_

#include <optional>
#include <vector>

#include "algo/traversal.hpp"
#include "core/bitstring.hpp"
#include "core/view.hpp"
#include "graph/graph.hpp"

namespace lcp {

/// One node's spanning-tree certificate.
struct TreeCert {
  std::uint64_t root_id = 0;  ///< claimed root identity
  std::uint64_t dist = 0;     ///< distance to the root in the tree
  std::uint64_t subtree = 0;  ///< nodes in this node's subtree (incl. self)
  std::uint64_t total = 0;    ///< claimed n(G)
  int parent_port = 0;        ///< port towards the parent (ignored at root)
  int width = 0;              ///< field width in bits (= b when truncated)
  bool is_root = false;       ///< explicit root claim (honest mode also
                              ///< demands dist == 0; truncation makes the
                              ///< dist criterion ambiguous mod 2^b)

  friend bool operator==(const TreeCert&, const TreeCert&) = default;
};

/// Serialised layout: 6-bit width, 8-bit parent port, root bit, then four
/// width-bit fields.  Total 15 + 4*width bits = O(log n) honest.
void append_tree_cert(BitString& out, const TreeCert& cert);

/// One certificate as a standalone proof label (append_tree_cert into a
/// fresh string); the dynamic maintainers emit repairs through this.
BitString encode_tree_cert(const TreeCert& cert);

/// Decodes one certificate; nullopt when the label is too short.
std::optional<TreeCert> read_tree_cert(BitReader& in);

/// Builds certificates for the given rooted spanning tree.
///
/// trunc_bits == 0 means honest: width = enough bits for max(id, n), exact
/// values.  trunc_bits >= 1 stores every field mod 2^trunc_bits.
/// Precondition: `tree` spans g (every node reachable).
std::vector<TreeCert> make_tree_cert_labels(const Graph& g,
                                            const RootedTree& tree,
                                            int trunc_bits);

/// The local check at the view's centre.  `certs[i]` is ball node i's
/// decoded certificate (nullopt = malformed -> reject).  Needs radius >= 2
/// (parent ports of neighbours are ranks in *their* adjacency lists).
///
/// Honest mode (trunc_bits == 0) additionally requires ids to fit the
/// declared width and uses exact arithmetic; truncated mode compares
/// everything mod 2^trunc_bits.
///
/// `check_root_id == false` is the port-numbering (M2) variant of
/// Section 7.1: identifier checks are skipped and root uniqueness must come
/// from elsewhere (the model's leader promise).
bool check_tree_cert_at_center(const View& view,
                               const std::vector<std::optional<TreeCert>>& certs,
                               int trunc_bits, bool check_root_id = true);

/// Is the centre the certified root (dist field == 0)?
bool cert_says_root(const TreeCert& cert);

/// The nominal size of an honest tree certificate for an n-node graph with
/// ids bounded by max_id.
int tree_cert_bits(int n, NodeId max_id);

}  // namespace lcp

#endif  // LCP_CORE_CERTIFICATES_HPP_
