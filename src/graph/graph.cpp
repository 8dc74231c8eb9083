#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace lcp {

namespace {

/// Home slot of `id` in an index table of mask + 1 slots: Fibonacci
/// hashing with the high half folded in, so both sequential ids and ids
/// sharing their low bits spread.
std::size_t home_slot(NodeId id, std::size_t mask) {
  const std::uint64_t h = id * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

std::size_t Graph::probe(NodeId id) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = home_slot(id, mask);
  while (index_[s] >= 0 && ids_[static_cast<std::size_t>(index_[s])] != id) {
    s = (s + 1) & mask;
  }
  return s;
}

void Graph::rebuild_index(std::size_t nodes) {
  // The smallest power of two that keeps the table at most half full.
  index_.assign(std::bit_ceil(2 * nodes), -1);
  for (int v = 0; v < n(); ++v) {
    index_[probe(ids_[static_cast<std::size_t>(v)])] = v;
  }
}

int Graph::add_node(NodeId id, std::uint64_t label) {
  if (index_of(id).has_value()) {
    throw std::invalid_argument("Graph::add_node: duplicate node id " +
                                std::to_string(id));
  }
  const int v = n();
  if (2 * (ids_.size() + 1) > index_.size()) {
    rebuild_index(ids_.size() + 1);
  }
  index_[probe(id)] = v;
  ids_.push_back(id);
  labels_.push_back(label);
  adj_.emplace_back();
  return v;
}

void Graph::check_new_edge(int u, int v) const {
  if (u < 0 || v < 0 || u >= n() || v >= n()) {
    throw std::invalid_argument("Graph::add_edge: endpoint out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loop");
  }
  if (has_edge(u, v)) {
    throw std::invalid_argument("Graph::add_edge: parallel edge");
  }
}

std::span<HalfEdge> Graph::list_of(int v) {
  const AdjSlot& s = adj_[static_cast<std::size_t>(v)];
  return {half_.data() + s.begin, static_cast<std::size_t>(s.size)};
}

void Graph::insert_half(int at, int to, int edge) {
  AdjSlot& slot = adj_[static_cast<std::size_t>(at)];
  if (slot.size == slot.cap) {
    // Full: double the slot.  A list that already ends the buffer grows
    // in place; any other moves to the end and leaves its old slot dead.
    const int cap = slot.cap == 0 ? 2 : 2 * slot.cap;
    const int end = static_cast<int>(half_.size());
    if (slot.cap > 0 && slot.begin + slot.cap == end) {
      half_.resize(static_cast<std::size_t>(slot.begin + cap));
    } else {
      half_.resize(static_cast<std::size_t>(end + cap));
      std::copy_n(half_.begin() + slot.begin, slot.size,
                  half_.begin() + end);
      dead_slots_ += slot.cap;
      slot.begin = end;
    }
    slot.cap = cap;
  }
  HalfEdge* first = half_.data() + slot.begin;
  HalfEdge* last = first + slot.size;
  HalfEdge* it = std::lower_bound(
      first, last, to,
      [this](const HalfEdge& h, int node) { return id(h.to) < id(node); });
  std::move_backward(it, last, last + 1);
  *it = HalfEdge{to, edge};
  ++slot.size;
  // Doubling alone keeps the dead below the live capacity, so the bound is
  // half of it; repacking then costs O(1) amortised per insert.
  const auto dead = static_cast<std::size_t>(dead_slots_);
  if (2 * dead > half_.size() - dead) compact_adjacency();
}

void Graph::compact_adjacency() {
  std::size_t live = 0;
  for (const AdjSlot& s : adj_) live += static_cast<std::size_t>(s.cap);
  std::vector<HalfEdge> packed(live);
  int next = 0;
  for (AdjSlot& s : adj_) {
    std::copy_n(half_.begin() + s.begin, s.size, packed.begin() + next);
    s.begin = next;
    next += s.cap;
  }
  half_ = std::move(packed);
  dead_slots_ = 0;
}

void Graph::drop_half(int at, int to) {
  const std::span<HalfEdge> list = list_of(at);
  auto it = std::find_if(list.begin(), list.end(),
                         [to](const HalfEdge& h) { return h.to == to; });
  if (it == list.end()) return;
  std::move(it + 1, list.end(), it);
  --adj_[static_cast<std::size_t>(at)].size;
}

int Graph::add_edge(int u, int v, std::uint64_t label, std::int64_t weight) {
  check_new_edge(u, v);
  const int e = m();
  edges_.push_back(EdgeRecord{u, v, label, weight});
  insert_half(u, v, e);
  insert_half(v, u, e);
  return e;
}

int Graph::insert_edge_at(int slot, int u, int v, std::uint64_t label,
                          std::int64_t weight) {
  check_new_edge(u, v);
  if (slot < 0 || slot > m()) {
    throw std::invalid_argument("Graph::insert_edge_at: slot out of range");
  }
  edges_.insert(edges_.begin() + slot, EdgeRecord{u, v, label, weight});
  for (int w = 0; w < n(); ++w) {
    for (HalfEdge& h : list_of(w)) {
      if (h.edge >= slot) ++h.edge;
    }
  }
  insert_half(u, v, slot);
  insert_half(v, u, slot);
  return slot;
}

void Graph::remove_edge_stable(int u, int v) {
  const int e = edge_index(u, v);
  if (e < 0) {
    throw std::invalid_argument("Graph::remove_edge_stable: no such edge");
  }
  drop_half(u, v);
  drop_half(v, u);
  edges_.erase(edges_.begin() + e);
  for (int w = 0; w < n(); ++w) {
    for (HalfEdge& h : list_of(w)) {
      if (h.edge > e) --h.edge;
    }
  }
}

void Graph::remove_edge(int u, int v) {
  const int e = edge_index(u, v);
  if (e < 0) {
    throw std::invalid_argument("Graph::remove_edge: no such edge");
  }
  drop_half(u, v);
  drop_half(v, u);
  const int last = m() - 1;
  if (e != last) {
    edges_[static_cast<std::size_t>(e)] = edges_[static_cast<std::size_t>(last)];
    // Re-point the moved edge's two adjacency entries at the new slot.
    const EdgeRecord& moved = edges_[static_cast<std::size_t>(e)];
    for (int endpoint : {moved.u, moved.v}) {
      for (HalfEdge& h : list_of(endpoint)) {
        if (h.edge == last) h.edge = e;
      }
    }
  }
  edges_.pop_back();
}

int Graph::edge_index(int u, int v) const {
  for (const HalfEdge& h : neighbors(u)) {
    if (h.to == v) return h.edge;
  }
  return -1;
}

std::optional<int> Graph::index_of(NodeId id) const {
  if (index_.empty()) return std::nullopt;
  const int v = index_[probe(id)];
  if (v < 0) return std::nullopt;
  return v;
}

int Graph::port_of(int v, int u) const {
  const std::span<const HalfEdge> list = neighbors(v);
  for (std::size_t p = 0; p < list.size(); ++p) {
    if (list[p].to == u) return static_cast<int>(p);
  }
  return -1;
}

std::optional<int> Graph::find_label(std::uint64_t label) const {
  for (int v = 0; v < n(); ++v) {
    if (labels_[static_cast<std::size_t>(v)] == label) return v;
  }
  return std::nullopt;
}

NodeId Graph::max_id() const {
  NodeId best = 0;
  for (NodeId id : ids_) best = std::max(best, id);
  return best;
}

std::string Graph::to_string() const {
  std::ostringstream out;
  out << "Graph(n=" << n() << ", m=" << m() << ")\n";
  for (int v = 0; v < n(); ++v) {
    out << "  [" << v << "] id=" << id(v) << " label=" << label(v) << " ->";
    for (const HalfEdge& h : neighbors(v)) {
      out << ' ' << id(h.to);
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace lcp
