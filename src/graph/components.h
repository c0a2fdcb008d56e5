// Connected-component decomposition of a bipartite graph. The execution
// plan (api/parallel_driver.h) shards the traversal-family backends by
// the components of the request's peeled core: each shard enumerates one
// component's induced subgraph, so the decomposition returns
// InducedSubgraph values whose id maps translate shard solutions back to
// the parent graph.
#ifndef KBIPLEX_GRAPH_COMPONENTS_H_
#define KBIPLEX_GRAPH_COMPONENTS_H_

#include <vector>

#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Per-vertex connected-component labels — the cheap O(V + E) pass, for
/// callers that need no materialized subgraphs (PreparedGraph caches it
/// and carries it across update epochs). Components are numbered by
/// their smallest (side, id) vertex.
struct ComponentLabeling {
  int num_components = 0;
  std::vector<int> left;   // component of each left vertex
  std::vector<int> right;  // component of each right vertex
};

ComponentLabeling LabelConnectedComponents(const BipartiteGraph& g);

/// Splits `g` into its connected components, each materialized as an
/// induced subgraph with ascending id maps back to `g`. Every vertex of
/// `g` appears in exactly one component; a vertex with no edges forms a
/// single-vertex component of its own. Components are ordered by their
/// smallest (side, id) vertex, and within each component the id maps are
/// sorted ascending, so compact-id solutions translate back to parent ids
/// without re-sorting.
std::vector<InducedSubgraph> ConnectedComponents(const BipartiteGraph& g);

/// The same, from a labeling of `g` the caller already holds.
std::vector<InducedSubgraph> ConnectedComponents(
    const BipartiteGraph& g, const ComponentLabeling& labels);

}  // namespace kbiplex

#endif  // KBIPLEX_GRAPH_COMPONENTS_H_
