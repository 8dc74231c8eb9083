// The communication-graph substrate.
//
// Graphs follow the paper's model (Section 2): simple undirected graphs whose
// nodes carry globally unique identifiers drawn from {1, ..., poly(n)} —
// O(log n) bits each — plus optional per-node and per-edge labels that encode
// problem inputs (s/t marks, leader flags, matching/tree membership, weights).
//
// Nodes are addressed internally by a dense index in [0, n); the identifier
// is payload, never an array index.  Directed instances (needed only for
// directed s-t unreachability) reuse the undirected structure with a
// direction mask stored in the edge label; see graph/directed.hpp.
//
// Storage is a handful of flat vectors, so building or copying a graph
// costs a constant number of heap allocations rather than one per node:
// ids and labels per node, edge records per edge, every adjacency list in
// one pooled half-edge buffer, and the id -> index map as an
// open-addressing table of node indices.
#ifndef LCP_GRAPH_GRAPH_HPP_
#define LCP_GRAPH_GRAPH_HPP_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lcp {

/// A globally unique node identifier (the paper's O(log n)-bit name).
using NodeId = std::uint64_t;

/// One adjacency entry: the neighbour's index and the shared edge's index.
struct HalfEdge {
  int to = 0;
  int edge = 0;
};

/// A simple undirected graph with unique node ids and labelled nodes/edges.
///
/// Invariants: no self-loops, no parallel edges, all node ids distinct.
/// Adjacency lists are kept sorted by neighbour *id* so that port numbers
/// (positions in the list) are a deterministic function of the id assignment,
/// as required by the model translations of Section 7.1.
///
/// Span lifetime: all adjacency lists share one buffer, and a list that
/// outgrows its slot moves (which may compact the whole buffer).  So any
/// structural mutation -- add_edge, insert_edge_at, remove_edge,
/// remove_edge_stable -- may invalidate EVERY span previously returned by
/// neighbors(), not only the mutated endpoints'.  add_node and the label
/// and weight setters leave spans valid.  Re-fetch neighbors() after a
/// structural mutation.
class Graph {
 public:
  Graph() = default;

  /// Adds a node with the given unique id and optional input label.
  /// Returns the node's dense index.  Throws std::invalid_argument on a
  /// duplicate id.
  int add_node(NodeId id, std::uint64_t label = 0);

  /// Adds an undirected edge {u, v} with optional label and weight.
  /// Returns the edge index.  Throws std::invalid_argument on self-loops,
  /// parallel edges, or out-of-range endpoints.
  int add_edge(int u, int v, std::uint64_t label = 0, std::int64_t weight = 1);

  /// Removes edge {u, v}.  The last edge record is swap-moved into the
  /// freed slot, so edge indices are NOT stable across removals.  Ports of
  /// u's and v's remaining higher-id neighbours shift down by one (ports
  /// stay a deterministic function of the current id assignment); nodes
  /// not adjacent to u or v are unaffected.  Throws std::invalid_argument
  /// when the edge is absent.  This is the structural mutation behind the
  /// delta API (core/delta.hpp).
  void remove_edge(int u, int v);

  /// Inserts edge {u, v} at edge index `slot`, shifting the indices of all
  /// edges at >= slot up by one (O(n + m): every adjacency entry is
  /// visited).  Same validation as add_edge.  View patching
  /// (View::apply_delta) uses this to splice an edge into the exact slot a
  /// fresh extraction would have produced, keeping patched balls
  /// bit-identical to re-extracted ones.
  int insert_edge_at(int slot, int u, int v, std::uint64_t label = 0,
                     std::int64_t weight = 1);

  /// Removes edge {u, v} preserving the relative order of the remaining
  /// edges: indices above the removed slot shift down by one (O(n + m)).
  /// The order-preserving counterpart of remove_edge, for view patching.
  void remove_edge_stable(int u, int v);

  int n() const { return static_cast<int>(ids_.size()); }
  int m() const { return static_cast<int>(edges_.size()); }

  NodeId id(int v) const { return ids_[static_cast<std::size_t>(v)]; }
  std::uint64_t label(int v) const {
    return labels_[static_cast<std::size_t>(v)];
  }
  void set_label(int v, std::uint64_t label) {
    labels_[static_cast<std::size_t>(v)] = label;
  }

  /// Neighbours of v, sorted ascending by neighbour id.
  /// Valid until the next structural mutation (see the class comment).
  std::span<const HalfEdge> neighbors(int v) const {
    const AdjSlot& s = adj_[static_cast<std::size_t>(v)];
    return {half_.data() + s.begin, static_cast<std::size_t>(s.size)};
  }
  int degree(int v) const { return adj_[static_cast<std::size_t>(v)].size; }

  bool has_edge(int u, int v) const { return edge_index(u, v) >= 0; }

  /// Index of edge {u, v}, or -1 when absent.
  int edge_index(int u, int v) const;

  /// Endpoints of edge e, in insertion order (stable; used by directed.hpp).
  int edge_u(int e) const { return edges_[static_cast<std::size_t>(e)].u; }
  int edge_v(int e) const { return edges_[static_cast<std::size_t>(e)].v; }

  std::uint64_t edge_label(int e) const {
    return edges_[static_cast<std::size_t>(e)].label;
  }
  void set_edge_label(int e, std::uint64_t label) {
    edges_[static_cast<std::size_t>(e)].label = label;
  }
  std::int64_t edge_weight(int e) const {
    return edges_[static_cast<std::size_t>(e)].weight;
  }
  void set_edge_weight(int e, std::int64_t weight) {
    edges_[static_cast<std::size_t>(e)].weight = weight;
  }

  /// Dense index of the node with the given id, if present.
  std::optional<int> index_of(NodeId id) const;

  /// The port number of neighbour `u` at node `v`: the position of u in v's
  /// id-sorted adjacency list (0-based).  Returns -1 when not adjacent.
  int port_of(int v, int u) const;

  /// Neighbour of `v` behind port `p` (0-based).  Precondition: valid port.
  int neighbor_at_port(int v, int p) const {
    return neighbors(v)[static_cast<std::size_t>(p)].to;
  }

  /// First node whose input label equals `label`, if any.
  std::optional<int> find_label(std::uint64_t label) const;

  /// Maximum node id (0 for the empty graph).
  NodeId max_id() const;

  /// All ids, indexed by node.
  const std::vector<NodeId>& ids() const { return ids_; }

  /// Human-readable dump for debugging and examples.
  std::string to_string() const;

  /// Half-edge slots held by the adjacency pool: live entries, spare
  /// capacity, and slots abandoned by lists that moved.  Always >= 2m;
  /// storage accounting only (tests use it to observe compaction).
  std::size_t adjacency_pool_slots() const { return half_.size(); }

 private:
  // ViewExtractor (core/view.hpp) assembles balls straight into these
  // containers, bypassing add_node/add_edge.
  friend class ViewExtractor;

  struct EdgeRecord {
    int u;
    int v;
    std::uint64_t label;
    std::int64_t weight;
  };

  /// Node v's adjacency list: half_[begin, begin + size), sorted by
  /// neighbour id, inside a slot of `cap` entries.
  struct AdjSlot {
    int begin = 0;
    int size = 0;
    int cap = 0;
  };

  void check_new_edge(int u, int v) const;
  void insert_half(int at, int to, int edge);
  void drop_half(int at, int to);
  /// Repacks half_ in node order, each list keeping its capacity.
  void compact_adjacency();
  std::span<HalfEdge> list_of(int v);
  /// Rebuilds index_ over the current ids, sized for `nodes` >= n() nodes.
  void rebuild_index(std::size_t nodes);
  /// The index_ slot holding `id`, or the empty slot where it belongs.
  std::size_t probe(NodeId id) const;

  std::vector<NodeId> ids_;
  std::vector<std::uint64_t> labels_;
  std::vector<AdjSlot> adj_;
  std::vector<HalfEdge> half_;  // every adjacency list, pooled
  // half_ slots no list owns any more; compacted away once they exceed
  // half of the slots lists do own.
  int dead_slots_ = 0;
  std::vector<EdgeRecord> edges_;
  // Open addressing with linear probing: node indices, -1 for empty; the
  // size is zero or a power of two at most half full.  Nodes are never
  // removed, so there are no tombstones.
  std::vector<int> index_;
};

}  // namespace lcp

#endif  // LCP_GRAPH_GRAPH_HPP_
