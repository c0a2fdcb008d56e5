// (α,β)-core computation on bipartite graphs. Used both as a baseline
// cohesive structure in the fraud-detection case study (Section 6.3) and as
// the (θ−k)-core pre-reduction of every thresholded query (Section 6.1),
// which the execution plan owns (api/parallel_driver.h).
#ifndef KBIPLEX_GRAPH_CORE_DECOMPOSITION_H_
#define KBIPLEX_GRAPH_CORE_DECOMPOSITION_H_

#include <vector>

#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Vertices surviving a core peeling, sorted ascending per side.
struct CoreResult {
  std::vector<VertexId> left;
  std::vector<VertexId> right;

  bool Empty() const { return left.empty() && right.empty(); }
};

/// Computes the (α,β)-core of `g`: the maximal induced subgraph where every
/// left vertex has degree >= alpha and every right vertex has degree >=
/// beta. Runs in O(|E| + |V|) via queue-based peeling.
CoreResult AlphaBetaCore(const BipartiteGraph& g, size_t alpha, size_t beta);

/// Convenience wrapper: materializes the core as an induced subgraph with
/// id maps back to `g`.
InducedSubgraph AlphaBetaCoreSubgraph(const BipartiteGraph& g, size_t alpha,
                                      size_t beta);

}  // namespace kbiplex

#endif  // KBIPLEX_GRAPH_CORE_DECOMPOSITION_H_
