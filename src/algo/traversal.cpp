#include "algo/traversal.hpp"

#include <algorithm>
#include <queue>

namespace lcp {

std::vector<int> components(const Graph& g) {
  std::vector<int> comp(static_cast<std::size_t>(g.n()), -1);
  int next = 0;
  for (int s = 0; s < g.n(); ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    comp[static_cast<std::size_t>(s)] = next;
    std::queue<int> queue;
    queue.push(s);
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop();
      for (const HalfEdge& h : g.neighbors(v)) {
        if (comp[static_cast<std::size_t>(h.to)] < 0) {
          comp[static_cast<std::size_t>(h.to)] = next;
          queue.push(h.to);
        }
      }
    }
    ++next;
  }
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.n() == 0) return true;
  const std::vector<int> comp = components(g);
  return std::all_of(comp.begin(), comp.end(), [](int c) { return c == 0; });
}

std::vector<int> RootedTree::subtree_sizes() const {
  std::vector<int> size(parent.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int v = *it;
    size[static_cast<std::size_t>(v)] += 1;
    if (v != root) {
      size[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])] +=
          size[static_cast<std::size_t>(v)];
    }
  }
  return size;
}

namespace {

RootedTree bfs_tree_impl(const Graph& g, int root,
                         const std::function<bool(int)>* edge_ok) {
  RootedTree tree;
  tree.root = root;
  tree.parent.assign(static_cast<std::size_t>(g.n()), -1);
  tree.dist.assign(static_cast<std::size_t>(g.n()), -1);
  tree.parent[static_cast<std::size_t>(root)] = root;
  tree.dist[static_cast<std::size_t>(root)] = 0;
  // `order` doubles as the BFS queue: nodes are only appended, and the
  // scan head never overtakes the tail.
  tree.order.reserve(static_cast<std::size_t>(g.n()));
  tree.order.push_back(root);
  for (std::size_t head = 0; head < tree.order.size(); ++head) {
    const int v = tree.order[head];
    for (const HalfEdge& h : g.neighbors(v)) {
      if (edge_ok != nullptr && !(*edge_ok)(h.edge)) continue;
      if (tree.parent[static_cast<std::size_t>(h.to)] < 0) {
        tree.parent[static_cast<std::size_t>(h.to)] = v;
        tree.dist[static_cast<std::size_t>(h.to)] =
            tree.dist[static_cast<std::size_t>(v)] + 1;
        tree.order.push_back(h.to);
      }
    }
  }
  return tree;
}

}  // namespace

RootedTree bfs_tree(const Graph& g, int root) {
  return bfs_tree_impl(g, root, nullptr);
}

RootedTree bfs_tree_restricted(const Graph& g, int root,
                               const std::function<bool(int)>& edge_ok) {
  return bfs_tree_impl(g, root, &edge_ok);
}

std::vector<int> shortest_path(const Graph& g, int from, int to) {
  const RootedTree tree = bfs_tree(g, from);
  if (tree.dist[static_cast<std::size_t>(to)] < 0) return {};
  std::vector<int> path;
  for (int v = to; v != from; v = tree.parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lcp
