// Quickstart: build a small bipartite graph, enumerate all maximal
// k-biplexes through the one-shot Enumerate entry point, and inspect the
// normalized statistics.
//
//   ./quickstart            (uses the built-in example graph, k = 1)
//   ./quickstart <edge-list-file> [k] [algorithm]
#include <iostream>
#include <string>

#include "api/enumerator.h"
#include "graph/generators.h"
#include "graph/graph_io.h"

using namespace kbiplex;

namespace {

void PrintBiplex(const Biplex& b) {
  std::cout << "  L = {";
  for (size_t i = 0; i < b.left.size(); ++i) {
    std::cout << (i ? ", " : "") << "v" << b.left[i];
  }
  std::cout << "}  R = {";
  for (size_t i = 0; i < b.right.size(); ++i) {
    std::cout << (i ? ", " : "") << "u" << b.right[i];
  }
  std::cout << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  BipartiteGraph g;
  EnumerateRequest req;  // defaults: algorithm = "itraversal", k = 1
  if (argc >= 2) {
    LoadResult r = LoadEdgeList(argv[1]);
    if (!r.ok()) {
      std::cerr << "failed to load " << argv[1] << ": " << r.error << "\n";
      return 1;
    }
    g = std::move(*r.graph);
    if (argc >= 3) req.k = KPair::Uniform(std::stoi(argv[2]));
    if (argc >= 4) req.algorithm = argv[3];
  } else {
    g = RunningExampleGraph();  // the 5x5 running example of the docs
  }

  std::cout << "Graph: |L| = " << g.NumLeft() << ", |R| = " << g.NumRight()
            << ", |E| = " << g.NumEdges() << ", k = " << req.k.left
            << ", algorithm = " << req.algorithm << "\n\n";

  std::cout << "Maximal " << req.k.left << "-biplexes:\n";
  CallbackSink sink([&](const Biplex& b) {
    PrintBiplex(b);
    return true;  // keep enumerating
  });
  EnumerateStats stats = Enumerate(g, req, &sink);
  if (!stats.ok()) {
    std::cerr << "error: " << stats.error << "\n";
    return 1;
  }

  std::cout << "\nStatistics:\n"
            << "  solutions          : " << stats.solutions << "\n"
            << "  work units         : " << stats.work_units << "\n"
            << "  time               : " << stats.seconds << " s\n";
  if (stats.traversal.has_value()) {
    const TraversalStats& t = *stats.traversal;
    std::cout << "  solution-graph links: " << t.links << "\n"
              << "  links pruned (RS)  : " << t.links_pruned_right_shrinking
              << "\n"
              << "  links pruned (ES)  : " << t.links_pruned_exclusion
              << "\n"
              << "  local solutions    : " << t.local_solutions << "\n";
  }
  std::cout << "\nAs JSON: " << stats.ToJson() << "\n";
  return 0;
}
