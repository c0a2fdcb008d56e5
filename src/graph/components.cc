#include "graph/components.h"

#include <utility>

namespace kbiplex {

ComponentLabeling LabelConnectedComponents(const BipartiteGraph& g) {
  const size_t nl = g.NumLeft();
  const size_t nr = g.NumRight();
  constexpr int kUnvisited = -1;
  ComponentLabeling out;
  out.left.assign(nl, kUnvisited);
  out.right.assign(nr, kUnvisited);

  // BFS over a worklist of side-tagged vertices. Seeding left vertices
  // first and right vertices after numbers components by their smallest
  // (side, id) vertex.
  std::vector<std::pair<Side, VertexId>> frontier;
  auto bfs_from = [&](Side side, VertexId seed) {
    const int comp = out.num_components++;
    (side == Side::kLeft ? out.left : out.right)[seed] = comp;
    frontier.assign(1, {side, seed});
    while (!frontier.empty()) {
      auto [s, v] = frontier.back();
      frontier.pop_back();
      for (VertexId u : g.Neighbors(s, v)) {
        std::vector<int>& marks = s == Side::kLeft ? out.right : out.left;
        if (marks[u] != kUnvisited) continue;
        marks[u] = comp;
        frontier.emplace_back(Opposite(s), u);
      }
    }
  };
  for (VertexId l = 0; l < nl; ++l) {
    if (out.left[l] == kUnvisited) bfs_from(Side::kLeft, l);
  }
  for (VertexId r = 0; r < nr; ++r) {
    if (out.right[r] == kUnvisited) bfs_from(Side::kRight, r);
  }
  return out;
}

std::vector<InducedSubgraph> ConnectedComponents(const BipartiteGraph& g) {
  return ConnectedComponents(g, LabelConnectedComponents(g));
}

std::vector<InducedSubgraph> ConnectedComponents(
    const BipartiteGraph& g, const ComponentLabeling& labels) {
  std::vector<std::vector<VertexId>> left_sets(labels.num_components);
  std::vector<std::vector<VertexId>> right_sets(labels.num_components);
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    left_sets[labels.left[l]].push_back(l);  // ascending: id maps stay sorted
  }
  for (VertexId r = 0; r < g.NumRight(); ++r) {
    right_sets[labels.right[r]].push_back(r);
  }

  std::vector<InducedSubgraph> out;
  out.reserve(labels.num_components);
  for (int c = 0; c < labels.num_components; ++c) {
    out.push_back(Induce(g, left_sets[c], right_sets[c]));
  }
  return out;
}

}  // namespace kbiplex
