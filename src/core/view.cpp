#include "core/view.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace lcp {

namespace {

/// Ball index of host node u, or -1 when u is outside the ball.  Ball
/// nodes carry their host ids, so the ball's own id index answers this in
/// O(1) without any per-view side table.
int ball_index_of(const Graph& ball, const Graph& host, int u) {
  const auto idx = ball.index_of(host.id(u));
  return idx.has_value() ? *idx : -1;
}

/// The slot a fresh extraction would give a ball edge {bu, bv}: the
/// extraction scan emits edges sorted by (smaller ball index, id of the
/// other endpoint), and patches preserve that order, so the slot is a
/// binary search over the existing edge list.
int canonical_edge_slot(const Graph& ball, int bu, int bv) {
  const int i = std::min(bu, bv);
  const NodeId other = ball.id(bu == i ? bv : bu);
  int lo = 0;
  int hi = ball.m();
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const int eu = ball.edge_u(mid);
    const int ev = ball.edge_v(mid);
    const int ei = std::min(eu, ev);
    const NodeId eother = ball.id(eu == ei ? ev : eu);
    if (ei < i || (ei == i && eother < other)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The ball index of the node that discovers `b` in the extraction BFS:
/// among b's in-ball neighbours one level closer to the centre, the one
/// with the smallest ball index (ball indices ARE BFS dequeue order, and
/// the first parent dequeued marks b).  Returns INT_MAX when b has no
/// in-ball parent (never the case for a member at distance >= 1).
int discoverer_of(const View& view, int b) {
  const int want = view.dist_of(b) - 1;
  int best = std::numeric_limits<int>::max();
  for (const HalfEdge& h : view.ball.neighbors(b)) {
    if (view.dist_of(h.to) == want && h.to < best) best = h.to;
  }
  return best;
}

}  // namespace

PatchResult View::classify_delta(const Graph& host, const ViewDelta& d) const {
  switch (d.kind) {
    case ViewDelta::Kind::kAddNode:
      // The new node is born isolated: it cannot sit in any existing ball,
      // and attaching it later arrives as its own kAddEdge delta.
      return PatchResult::kUnchanged;
    case ViewDelta::Kind::kNodeLabel:
      return ball_index_of(ball, host, d.u) >= 0 ? PatchResult::kPatched
                                                 : PatchResult::kUnchanged;
    case ViewDelta::Kind::kEdgeLabel:
    case ViewDelta::Kind::kEdgeWeight: {
      const int bu = ball_index_of(ball, host, d.u);
      if (bu < 0) return PatchResult::kUnchanged;
      const int bv = ball_index_of(ball, host, d.v);
      if (bv < 0) return PatchResult::kUnchanged;
      // Both endpoints are members, so the induced ball must carry the
      // edge; a missing edge means the view no longer matches the delta
      // stream and only re-extraction is safe.
      return ball.has_edge(bu, bv) ? PatchResult::kPatched
                                   : PatchResult::kFallback;
    }
    case ViewDelta::Kind::kAddEdge: {
      const int bu = ball_index_of(ball, host, d.u);
      const int bv = ball_index_of(ball, host, d.v);
      if (bu < 0 && bv < 0) return PatchResult::kUnchanged;
      if (bu < 0 || bv < 0) {
        // One endpoint in the ball.  From the frontier the new edge leads
        // strictly outside (the other endpoint would land at distance
        // radius + 1) and induced balls only carry member-member edges, so
        // the view is untouched.  From any interior node the other
        // endpoint enters the ball: the frontier moves.
        const int inside = bu >= 0 ? bu : bv;
        return dist_of(inside) == radius ? PatchResult::kUnchanged
                                         : PatchResult::kFallback;
      }
      if (ball.has_edge(bu, bv)) return PatchResult::kFallback;  // stale view
      const int du = dist_of(bu);
      const int dv = dist_of(bv);
      // Same level: the edge joins two already-discovered nodes, so no
      // distance, membership, or BFS-order change — purely a new induced
      // edge.
      if (du == dv) return PatchResult::kPatched;
      if (du > dv ? du - dv == 1 : dv - du == 1) {
        // Adjacent levels: distances survive, but the lower endpoint
        // becomes a parent of the higher one.  The extraction BFS stays
        // bit-identical iff the higher endpoint's discoverer keeps a
        // smaller dequeue position than the new parent.
        const int lo = du < dv ? bu : bv;
        const int hi_node = du < dv ? bv : bu;
        return discoverer_of(*this, hi_node) < lo ? PatchResult::kPatched
                                                  : PatchResult::kFallback;
      }
      // Two or more levels apart: the edge is a shortcut, distances (and
      // possibly membership) change.
      return PatchResult::kFallback;
    }
    case ViewDelta::Kind::kRemoveEdge: {
      const int bu = ball_index_of(ball, host, d.u);
      if (bu < 0) return PatchResult::kUnchanged;
      const int bv = ball_index_of(ball, host, d.v);
      if (bv < 0) return PatchResult::kUnchanged;
      // Distances to members are realised by paths inside the ball, so an
      // edge with at most one member endpoint can never carry one; with
      // both endpoints inside, the induced edge disappears and the
      // question is whether anything else depended on it.
      if (!ball.has_edge(bu, bv)) return PatchResult::kFallback;  // stale
      const int du = dist_of(bu);
      const int dv = dist_of(bv);
      // Same level: never on a shortest path, never a discovery edge.
      if (du == dv) return PatchResult::kPatched;
      // Adjacent levels (anything else is impossible for an existing
      // edge): safe iff the higher endpoint was not discovered through the
      // removed edge — some other parent with a smaller dequeue position
      // keeps both its distance and its BFS slot.
      const int lo = du < dv ? bu : bv;
      const int hi_node = du < dv ? bv : bu;
      return discoverer_of(*this, hi_node) != lo ? PatchResult::kPatched
                                                 : PatchResult::kFallback;
    }
  }
  return PatchResult::kFallback;
}

PatchResult View::apply_delta(const Graph& host, const ViewDelta& d) {
  const PatchResult verdict = classify_delta(host, d);
  if (verdict != PatchResult::kPatched) return verdict;
  apply_delta_unchecked(host, d);
  return PatchResult::kPatched;
}

void View::apply_delta_unchecked(const Graph& host, const ViewDelta& d) {
  switch (d.kind) {
    case ViewDelta::Kind::kNodeLabel:
      ball.set_label(ball_index_of(ball, host, d.u), d.label);
      break;
    case ViewDelta::Kind::kEdgeLabel: {
      const int bu = ball_index_of(ball, host, d.u);
      const int bv = ball_index_of(ball, host, d.v);
      ball.set_edge_label(ball.edge_index(bu, bv), d.label);
      break;
    }
    case ViewDelta::Kind::kEdgeWeight: {
      const int bu = ball_index_of(ball, host, d.u);
      const int bv = ball_index_of(ball, host, d.v);
      ball.set_edge_weight(ball.edge_index(bu, bv), d.weight);
      break;
    }
    case ViewDelta::Kind::kAddEdge: {
      // Endpoint order mirrors the host edge record (the delta's u, v), as
      // extraction does; the slot is where the extraction scan would have
      // emitted it.
      const int bu = ball_index_of(ball, host, d.u);
      const int bv = ball_index_of(ball, host, d.v);
      ball.insert_edge_at(canonical_edge_slot(ball, bu, bv), bu, bv, d.label,
                          d.weight);
      break;
    }
    case ViewDelta::Kind::kRemoveEdge: {
      const int bu = ball_index_of(ball, host, d.u);
      const int bv = ball_index_of(ball, host, d.v);
      ball.remove_edge_stable(bu, bv);
      break;
    }
    case ViewDelta::Kind::kAddNode:
      break;  // never classified kPatched
  }
}

PatchResult View::patch_proof(const Graph& host, int u, const BitString& bits) {
  const int b = ball_index_of(ball, host, u);
  if (b < 0) return PatchResult::kUnchanged;
  proofs[static_cast<std::size_t>(b)] = bits;
  return PatchResult::kPatched;
}

View make_isolated_view(const Graph& host, const Proof& p, int v, int radius) {
  View view;
  view.radius = radius;
  view.center = 0;
  view.ball.add_node(host.id(v), host.label(v));
  view.proofs.push_back(p.labels[static_cast<std::size_t>(v)]);
  view.dist.push_back(0);
  return view;
}

bool graphs_bit_identical(const Graph& a, const Graph& b) {
  if (a.n() != b.n() || a.m() != b.m()) return false;
  for (int v = 0; v < a.n(); ++v) {
    if (a.id(v) != b.id(v) || a.label(v) != b.label(v)) return false;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (na.size() != nb.size()) return false;
    for (std::size_t i = 0; i < na.size(); ++i) {
      if (na[i].to != nb[i].to || na[i].edge != nb[i].edge) return false;
    }
  }
  for (int e = 0; e < a.m(); ++e) {
    if (a.edge_u(e) != b.edge_u(e) || a.edge_v(e) != b.edge_v(e) ||
        a.edge_label(e) != b.edge_label(e) ||
        a.edge_weight(e) != b.edge_weight(e)) {
      return false;
    }
  }
  return true;
}

bool views_bit_identical(const View& a, const View& b) {
  return a.center == b.center && a.radius == b.radius && a.dist == b.dist &&
         a.proofs == b.proofs && graphs_bit_identical(a.ball, b.ball);
}

void ViewExtractor::bind(const Graph& g) {
  g_ = &g;
  // extract() leaves every position_ entry at -1, so growing keeps that
  // invariant without refilling.  edge_map_ needs no reset at all: an
  // entry is only read after this extraction wrote it.
  position_.resize(static_cast<std::size_t>(g.n()), -1);
  if (edge_map_.size() < static_cast<std::size_t>(g.m())) {
    edge_map_.resize(static_cast<std::size_t>(g.m()));
  }
}

View ViewExtractor::extract(const Proof& p, int v, int radius,
                            std::vector<int>* host_out) {
  const Graph& g = *g_;
  order_.clear();
  dist_.clear();

  // One BFS discovers the ball and its distances; `order_` doubles as the
  // queue (members are only appended, and the scan head never overtakes the
  // tail), so the ball comes out in the same centre-first BFS order that
  // `ball_nodes` produces.
  position_[static_cast<std::size_t>(v)] = 0;
  order_.push_back(v);
  dist_.push_back(0);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const int u = order_[head];
    const int du = dist_[head];
    if (du == radius) continue;
    for (const HalfEdge& h : g.neighbors(u)) {
      if (position_[static_cast<std::size_t>(h.to)] < 0) {
        position_[static_cast<std::size_t>(h.to)] =
            static_cast<int>(order_.size());
        order_.push_back(h.to);
        dist_.push_back(du + 1);
      }
    }
  }

  // The ball is written straight into Graph's containers, each sized once,
  // and comes out bit-identical to add_node/add_edge in ball order followed
  // by add_edge for every member-member edge from its smaller-index end.
  const std::size_t k = order_.size();
  View view;
  view.radius = radius;
  view.center = 0;
  Graph& ball = view.ball;
  ball.ids_.resize(k);
  ball.labels_.resize(k);
  ball.adj_.resize(k);
  int half_edges = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const int u = order_[i];
    ball.ids_[i] = g.id(u);
    ball.labels_[i] = g.label(u);
    int degree = 0;
    for (const HalfEdge& h : g.neighbors(u)) {
      if (position_[static_cast<std::size_t>(h.to)] >= 0) ++degree;
    }
    ball.adj_[i] = Graph::AdjSlot{half_edges, 0, degree};
    half_edges += degree;
  }
  ball.rebuild_index(k);
  ball.half_.resize(static_cast<std::size_t>(half_edges));
  ball.edges_.reserve(static_cast<std::size_t>(half_edges / 2));
  // Each in-ball edge is emitted from the endpoint with the smaller ball
  // index, in that member's adjacency order; by the time the other
  // endpoint's list is written, edge_map_ holds its ball index.  Endpoint
  // order mirrors the host edge's (edge_u, edge_v): direction masks in
  // edge labels (graph/directed.hpp) are interpreted relative to it.
  // Filtering the host's id-sorted list keeps each ball list id-sorted,
  // as ball ids are host ids.
  for (std::size_t i = 0; i < k; ++i) {
    Graph::AdjSlot& slot = ball.adj_[i];
    for (const HalfEdge& h : g.neighbors(order_[i])) {
      const int j = position_[static_cast<std::size_t>(h.to)];
      if (j < 0) continue;
      int& ball_edge = edge_map_[static_cast<std::size_t>(h.edge)];
      if (j > static_cast<int>(i)) {
        ball_edge = ball.m();
        const Graph::EdgeRecord& rec =
            g.edges_[static_cast<std::size_t>(h.edge)];
        ball.edges_.push_back(Graph::EdgeRecord{
            position_[static_cast<std::size_t>(rec.u)],
            position_[static_cast<std::size_t>(rec.v)], rec.label,
            rec.weight});
      }
      ball.half_[static_cast<std::size_t>(slot.begin + slot.size++)] =
          HalfEdge{j, ball_edge};
    }
  }
  view.proofs.reserve(k);
  for (int u : order_) {
    view.proofs.push_back(p.labels[static_cast<std::size_t>(u)]);
  }
  // Distances inside the induced ball equal distances in G for ball members,
  // so the BFS above already computed them.
  view.dist = dist_;

  if (host_out != nullptr) *host_out = order_;
  for (int u : order_) position_[static_cast<std::size_t>(u)] = -1;
  return view;
}

View extract_view(const Graph& g, const Proof& p, int v, int radius) {
  ViewExtractor extractor(g);
  return extractor.extract(p, v, radius);
}

}  // namespace lcp
