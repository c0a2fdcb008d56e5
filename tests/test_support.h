// Shared helpers for the test suites.
#ifndef KBIPLEX_TESTS_TEST_SUPPORT_H_
#define KBIPLEX_TESTS_TEST_SUPPORT_H_

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "core/biplex.h"
#include "core/itraversal.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "util/random.h"

namespace kbiplex {
namespace testing_support {

/// Builds a bipartite graph from an initializer-friendly edge list.
inline BipartiteGraph MakeGraph(size_t nl, size_t nr,
                                std::vector<BipartiteGraph::Edge> edges) {
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

/// Renders a biplex as "{l0 l1 | r0 r1}" for failure messages.
inline std::string ToString(const Biplex& b) {
  std::ostringstream os;
  os << "{";
  for (VertexId v : b.left) os << " " << v;
  os << " |";
  for (VertexId u : b.right) os << " " << u;
  os << " }";
  return os.str();
}

/// Renders a list of biplexes.
inline std::string ToString(const std::vector<Biplex>& bs) {
  std::ostringstream os;
  for (const Biplex& b : bs) os << ToString(b) << "\n";
  return os.str();
}

/// A reproducible family of small random graphs for property sweeps.
struct RandomGraphCase {
  size_t nl;
  size_t nr;
  double p;
  uint64_t seed;
};

inline BipartiteGraph MakeRandomGraph(const RandomGraphCase& c) {
  Rng rng(c.seed);
  return ErdosRenyiProbBipartite(c.nl, c.nr, c.p, &rng);
}

/// Runs the traversal engine once and returns its solutions, sorted;
/// the test-suite shorthand for one engine-level enumeration.
inline std::vector<Biplex> CollectWith(const BipartiteGraph& g,
                                       const TraversalOptions& opts,
                                       TraversalStats* stats = nullptr) {
  std::vector<Biplex> out;
  TraversalStats s = TraversalEngine(g, opts).Run([&](const Biplex& b) {
    out.push_back(b);
    return true;
  });
  if (stats != nullptr) *stats = s;
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `request` once over `g` through a fresh QuerySession on the
/// borrowed graph (what Enumerate does) and returns the solutions, sorted.
inline std::vector<Biplex> CollectRequest(const BipartiteGraph& g,
                                          const EnumerateRequest& request,
                                          EnumerateStats* stats = nullptr) {
  return QuerySession(PreparedGraph::Borrow(g)).Collect(request, stats);
}

/// Runs the large-mbp backend once over `g` (through the execution plan,
/// which peels the request's core) and returns its solutions, sorted.
inline std::vector<Biplex> CollectLarge(const BipartiteGraph& g, KPair k,
                                        size_t theta_left, size_t theta_right,
                                        EnumerateStats* stats = nullptr) {
  EnumerateRequest request;
  request.algorithm = "large-mbp";
  request.k = k;
  request.theta_left = theta_left;
  request.theta_right = theta_right;
  return CollectRequest(g, request, stats);
}

}  // namespace testing_support
}  // namespace kbiplex

#endif  // KBIPLEX_TESTS_TEST_SUPPORT_H_
