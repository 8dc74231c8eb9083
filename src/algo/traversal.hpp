// Basic graph traversal: components, connectivity, BFS trees.
#ifndef LCP_ALGO_TRAVERSAL_HPP_
#define LCP_ALGO_TRAVERSAL_HPP_

#include <functional>
#include <vector>

#include "graph/graph.hpp"

namespace lcp {

/// Component id per node (0-based, BFS order of discovery).
std::vector<int> components(const Graph& g);

/// True when g is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// A rooted spanning structure: parent[root] == root; parent[v] == -1 when
/// v is unreachable from the root.  `order` lists the reached nodes in
/// discovery order, so every parent comes before its children.
struct RootedTree {
  int root = 0;
  std::vector<int> parent;
  std::vector<int> dist;
  std::vector<int> order;

  /// True when the tree reaches every node (the graph, or the subgraph of
  /// allowed edges, is connected).
  bool spans() const { return order.size() == parent.size(); }

  /// Sizes of the subtree hanging below each node (1 for leaves, 0 when
  /// unreachable); one pass over `order`, children before parents.
  std::vector<int> subtree_sizes() const;
};

/// BFS spanning tree of the component of `root`.
RootedTree bfs_tree(const Graph& g, int root);

/// BFS spanning tree restricted to edges where `edge_ok(edge_index)` holds;
/// used to orient a solution-labelled tree (e.g. a claimed spanning tree).
RootedTree bfs_tree_restricted(const Graph& g, int root,
                               const std::function<bool(int)>& edge_ok);

/// Shortest path between two nodes as a node-index sequence (inclusive);
/// empty when unreachable.
std::vector<int> shortest_path(const Graph& g, int from, int to);

}  // namespace lcp

#endif  // LCP_ALGO_TRAVERSAL_HPP_
