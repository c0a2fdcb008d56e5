// The execution plan behind every QuerySession run, at every thread
// count. Each plan runs an existing sequential engine on shards chosen so
// that the union of the shards' solution sets provably equals the
// sequential run's set:
//
//   masks       brute-force at threads >= 2: each worker scans a slice of
//               the 2^|L| candidate masks; maximality is judged against
//               the whole graph, so slices are disjoint and complete.
//   roots       imb at threads >= 2: the top-level branches of the
//               set-enumeration tree are independent, so a partition of
//               them across workers is disjoint and complete.
//   components, sequential
//               everything else (traversal family, large-mbp, inflation)
//               at every thread count, in three steps. Peel: reduce the
//               execution graph to the request's
//               (theta_right - k.left, theta_left - k.right)-core, which
//               holds every deliverable solution, each maximal there iff
//               maximal in the graph (Sections 5 and 6.1). Split: when
//               ComponentShardingIsSafe holds, the request has no
//               max_links and no inflation max_inflated_edges, the shards
//               are the core's connected components with >= theta_left
//               left and >= theta_right right vertices; otherwise, or
//               when no component is kept, the core is the one shard.
//               Enumerate: run the backend on each shard, "components"
//               for two or more, "sequential" for one. threads = 1 and a
//               single shard run inline on the calling thread in a fixed
//               order (no pool, so any sink is accepted, with the session
//               scratch); otherwise min(threads, shards) workers run them.
//               Either way the shards and their work counters are the
//               same. One component is never split further: dividing its
//               solution graph across workers would switch off the
//               exclusion prune (Section 3.5).
//
// brute-force and imb at threads = 1, a request with no peel (theta <= k
// on both sides) and one whose single shard kept every vertex run the
// backend once on the execution graph itself, with the attached index and
// the session scratch (plan "sequential").
//
// Global budgets stay global: shards share one delivery point guarding
// the caller's sink with a mutex and counting delivered solutions
// atomically; reaching max_results (or a sink refusal) fires a
// driver-owned CancellationToken chained to the caller's token, stopping
// every shard at its next poll point.
#ifndef KBIPLEX_API_PARALLEL_DRIVER_H_
#define KBIPLEX_API_PARALLEL_DRIVER_H_

#include <cstddef>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/registry.h"
#include "api/solution_sink.h"

namespace kbiplex {
namespace internal {

/// Resolves EnumerateRequest::threads: 0 maps to the hardware thread
/// count, everything else to itself. Callers reject negatives upfront.
size_t ResolveThreadCount(int threads);

/// True iff component sharding provably yields the sequential solution
/// set: the size thresholds must exclude every maximal k-biplex that
/// spans two or more connected components (such spanning solutions exist
/// whenever the budgets allow fully-disconnected members — two disjoint
/// edges form one maximal 1-biplex — so this is a real restriction, not
/// an optimization detail).
bool ComponentShardingIsSafe(KPair k, size_t theta_left, size_t theta_right);

/// The per-side degree demands of the request's thresholds: a left member
/// of a k-biplex with |R'| >= theta_right has >= theta_right - k.left
/// neighbors in it (alpha), a right member >= theta_left - k.right
/// (beta); each is 0 when its threshold does not exceed the budget.
struct CoreDegrees {
  size_t alpha = 0;
  size_t beta = 0;
};
CoreDegrees RequestCoreDegrees(const EnumerateRequest& request);

/// Runs `request` against `ctx.prepared->ExecutionGraph()` under the plan
/// chosen above and records it in the result's `plan`. Solutions are
/// delivered in execution-graph ids; renumbering map-back is the
/// caller's concern. Pre-conditions: the request passed session
/// validation for `info`, request.threads >= 0, and `sink` is thread
/// compatible unless request.threads == 1.
EnumerateStats RunPlan(const QueryContext& ctx,
                       const EnumerateRequest& request,
                       const AlgorithmRegistry& registry,
                       const AlgorithmInfo& info, SolutionSink* sink);

}  // namespace internal
}  // namespace kbiplex

#endif  // KBIPLEX_API_PARALLEL_DRIVER_H_
