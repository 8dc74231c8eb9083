// The three workloads; each runs alone in its process (see README.md for
// why each exists and which layer it loads).
#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include "common.hpp"
#include "graph/graph.hpp"

namespace perfbench {

Result run_structural_churn(const Options& options);
Result run_relabel_storm(const Options& options);
Result run_server_sessions(const Options& options);

/// Labels a greedy maximal matching into g's edge labels, the input the
/// maximal-matching scheme certifies.
void label_greedy_matching(lcp::Graph& g);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
