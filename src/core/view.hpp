// The local view of a node: the triple (G[v,r], P[v,r], v).
//
// This is exactly what the paper's local verifier receives — the subgraph
// induced by the radius-r ball around v, the proof restricted to it, and the
// identity of v within it.  A verifier must not (and with this API cannot)
// read anything outside the view.
#ifndef LCP_CORE_VIEW_HPP_
#define LCP_CORE_VIEW_HPP_

#include <vector>

#include "core/bitstring.hpp"
#include "core/proof.hpp"
#include "graph/graph.hpp"

namespace lcp {

/// One structural or label mutation of the host graph, as seen by a cached
/// view.  A compact mirror of MutationBatch::Op (core/delta.hpp) without
/// the proof payload: DeltaTracker records one per applied op so that
/// consumers holding cached views can patch them in place instead of
/// re-extracting (View::apply_delta).  `u`/`v` are host dense indices; for
/// kAddNode, `u` is the index the node received.
struct ViewDelta {
  enum class Kind {
    kNodeLabel,
    kEdgeLabel,
    kEdgeWeight,
    kAddEdge,
    kRemoveEdge,
    kAddNode,
  };
  Kind kind = Kind::kNodeLabel;
  int u = -1;
  int v = -1;
  std::uint64_t label = 0;
  std::int64_t weight = 0;
};

/// Outcome of offering a delta to a cached view.
enum class PatchResult {
  /// The delta cannot affect this view (epicentre outside the ball, or an
  /// edge whose only in-ball endpoint sits on the frontier).  Nothing was
  /// done; the view is already identical to a fresh extraction.
  kUnchanged,
  /// The view was updated in place and is bit-identical to a fresh
  /// extraction from the mutated host.
  kPatched,
  /// The delta moves the ball's frontier (membership, a distance, or the
  /// BFS discovery order changes): the caller must re-extract.
  kFallback,
};

/// A node's radius-r view.  `ball` preserves original ids, node labels and
/// edge data; `proofs[i]` is the proof label of ball node i; `dist[i]` is the
/// distance from the centre (equal to the distance in G, because shortest
/// paths to ball members stay inside the ball).
struct View {
  Graph ball;
  int center = 0;
  int radius = 0;
  std::vector<BitString> proofs;
  std::vector<int> dist;

  /// Convenience accessors, all in ball indices.
  NodeId center_id() const { return ball.id(center); }
  const BitString& proof_of(int v) const {
    return proofs[static_cast<std::size_t>(v)];
  }
  int dist_of(int v) const { return dist[static_cast<std::size_t>(v)]; }

  /// True when the ball provably contains the whole connected component
  /// (every node is at distance < radius, so no edge can leave the ball).
  bool sees_whole_component() const {
    for (int d : dist) {
      if (d >= radius) return false;
    }
    return true;
  }

  /// Decides — without mutating — whether `d` can be applied to this view
  /// in place.  kPatched means apply_delta would leave the view
  /// bit-identical to a fresh extraction from the mutated host; kFallback
  /// means the ball's membership, a distance, or the extraction BFS order
  /// moves and the caller must re-extract.  The host graph must already
  /// carry the mutation (ids are the only host state consulted, and ids
  /// never change, so classification is valid whether the host holds the
  /// stepwise or the final state).
  PatchResult classify_delta(const Graph& host, const ViewDelta& d) const;

  /// Applies `d` to the view in place when classify_delta says kPatched;
  /// otherwise a no-op that returns the classification.  Patched edges are
  /// spliced into the exact edge slot a fresh extraction would produce
  /// (extraction emits ball edges sorted by (smaller ball index, id of the
  /// other endpoint)), so a kPatched view is bit-identical to
  /// re-extraction — tests/test_view_patch.cpp pins this per mutation kind.
  PatchResult apply_delta(const Graph& host, const ViewDelta& d);

  /// The mutation half of apply_delta without the classification pass.
  /// Precondition: classify_delta(host, d) == kPatched (hot loops that
  /// already classified — IncrementalEngine's replay — skip paying for it
  /// twice).
  void apply_delta_unchecked(const Graph& host, const ViewDelta& d);

  /// Patches one proof label: proofs[ball index of u] = bits when u is a
  /// ball member (kPatched), kUnchanged otherwise.
  PatchResult patch_proof(const Graph& host, int u, const BitString& bits);
};

/// The view of a freshly added, still isolated host node v: a one-node
/// ball.  Bit-identical to extract_view(host, p, v, radius) while v has no
/// incident edges, so per-node caches can grow without an extraction.
View make_isolated_view(const Graph& host, const Proof& p, int v, int radius);

/// Deep bit-identity: equal node order, ids, labels, edge records (order
/// included), adjacency lists, distances and proofs.  Stricter than
/// isomorphism on purpose — the cache layers guarantee patched views are
/// indistinguishable from re-extracted ones at the representation level.
bool graphs_bit_identical(const Graph& a, const Graph& b);
bool views_bit_identical(const View& a, const View& b);

/// Builds the view of node v (dense index) in g under proof p.
View extract_view(const Graph& g, const Proof& p, int v, int radius);

/// Batched view extraction over one host graph.
///
/// Extracting all n views one `extract_view` call at a time costs O(n * m):
/// the induced-subgraph step scans every host edge per node.  ViewExtractor
/// binds to a host graph once, keeps O(n + m) scratch buffers alive between
/// calls, discovers the ball with a single BFS (reusing its distances), and
/// assembles ball edges from the ball members' adjacency lists only — so a
/// whole-graph sweep costs O(sum of ball sizes).  As a friend of Graph it
/// writes the ball in one pass: ids, labels and the id index sized to the
/// ball, edges in extraction order through a host-edge -> ball-edge scratch
/// map, and each adjacency list filtered from the host's id-sorted one — no
/// per-edge sorted insert, parallel-edge scan or index rehash, and a
/// constant number of allocations per view.  The result is bit-identical
/// to building the ball with add_node/add_edge (tests/test_view_extract.cpp
/// pins this).  This is the extraction kernel behind sweep_sequential,
/// SweepEngine (core/engine.hpp) and IncrementalEngine; each thread owns its
/// own extractor, as instances are not thread-safe.
class ViewExtractor {
 public:
  ViewExtractor() = default;
  explicit ViewExtractor(const Graph& g) { bind(g); }

  /// (Re)binds to a host graph, resizing the scratch buffers.  Bind again
  /// after the host gains nodes or edges.
  void bind(const Graph& g);

  /// Extracts the view of node v (dense index) under proof p.  When
  /// `host_out` is non-null it receives the host dense index of every ball
  /// node, aligned with ball indices — callers that cache views use it to
  /// refresh proof labels without re-extracting.  Requires a prior bind().
  View extract(const Proof& p, int v, int radius,
               std::vector<int>* host_out = nullptr);

 private:
  const Graph* g_ = nullptr;
  std::vector<int> position_;  // host index -> ball index; -1 when outside
  std::vector<int> order_;     // ball members as host indices, BFS order
  std::vector<int> dist_;      // distance from centre, aligned with order_
  std::vector<int> edge_map_;  // host edge -> ball edge, valid once written
};

}  // namespace lcp

#endif  // LCP_CORE_VIEW_HPP_
