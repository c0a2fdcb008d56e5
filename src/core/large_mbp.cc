#include "core/large_mbp.h"

#include "core/btraversal.h"
#include "graph/core_decomposition.h"
#include "util/timer.h"

namespace kbiplex {

LargeMbpStats LargeMbpEngine::Run(const SolutionCallback& cb) {
  LargeMbpStats stats;
  WallTimer timer;

  TraversalOptions topts = MakeITraversalOptions(1);
  topts.k = opts_.k;
  topts.theta_left = opts_.theta_left;
  topts.theta_right = opts_.theta_right;
  topts.max_results = opts_.max_results;
  topts.time_budget_seconds = opts_.time_budget_seconds;
  topts.cancel = opts_.cancel;
  topts.scratch = opts_.scratch;

  if (!opts_.core_reduction) {
    stats.core_left = g_.NumLeft();
    stats.core_right = g_.NumRight();
    TraversalEngine engine(g_, topts);
    stats.traversal = engine.Run(cb);
    stats.completed = stats.traversal.completed;
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }

  // Every large MBP lies inside the (θ−k)-core: each of its left vertices
  // keeps >= θ_right − k right neighbors and vice versa, and adding any
  // eligible outside vertex would extend the core (Section 6.1). So we may
  // enumerate on the reduced subgraph and translate ids back.
  const size_t kl = static_cast<size_t>(opts_.k.left);
  const size_t kr = static_cast<size_t>(opts_.k.right);
  const size_t alpha = opts_.theta_right > kl ? opts_.theta_right - kl : 0;
  const size_t beta = opts_.theta_left > kr ? opts_.theta_left - kr : 0;
  InducedSubgraph core = AlphaBetaCoreSubgraph(g_, alpha, beta);
  stats.core_left = core.graph.NumLeft();
  stats.core_right = core.graph.NumRight();
  if (core.graph.NumLeft() < opts_.theta_left ||
      core.graph.NumRight() < opts_.theta_right) {
    stats.seconds = timer.ElapsedSeconds();
    return stats;  // no large MBP can exist
  }

  TraversalEngine engine(core.graph, topts);
  stats.traversal = engine.Run([&](const Biplex& b) {
    Biplex mapped;
    mapped.left.reserve(b.left.size());
    mapped.right.reserve(b.right.size());
    for (VertexId v : b.left) mapped.left.push_back(core.left_map[v]);
    for (VertexId u : b.right) mapped.right.push_back(core.right_map[u]);
    // Maps are monotone (Induce preserves order), so sets stay sorted.
    return cb(mapped);
  });
  stats.completed = stats.traversal.completed;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace kbiplex
