// The built-in enumeration backends behind AlgorithmRegistry::Global(),
// and the one-shot Enumerate entry point over them.
//
//   EnumerateRequest req;
//   req.algorithm = "itraversal";
//   req.k = KPair::Uniform(2);
//   CollectingSink sink;
//   EnumerateStats stats = Enumerate(g, req, &sink);
//
// Enumerate is one QuerySession::Run (api/query_session.h) over
// PreparedGraph::Borrow(g); services answering many queries over one
// graph should keep a PreparedGraph and a QuerySession instead.
//
// Registered built-in algorithms:
//
//   name              backend                                  constraints
//   ----------------  ---------------------------------------  -----------
//   itraversal        reverse search, all three techniques
//   itraversal-es     iTraversal without the exclusion strategy
//   itraversal-es-rs  left-anchored traversal only
//   btraversal        conventional reverse search (Algorithm 1)
//   large-mbp         Section 5 large-MBP enumeration on the    theta >= 1
//                     (θ−k)-core the execution plan peeled
//   imb               iMB-style set enumeration baseline        uniform k
//   inflation         FaPlexen-style graph-inflation baseline   uniform k
//   brute-force       exhaustive reference enumerator           sides <= 20
//
// Backend options (EnumerateRequest::backend_options; unknown keys are
// rejected):
//
//   traversal family: "anchored_side"            left | right
//                     "local_impl"               direct | inflation
//                     "local_l"                  l10 | l20
//                     "local_r"                  r10 | r20
//                     "polynomial_delay_output"  true | false
//   inflation:        "max_inflated_edges"       <N>  (0 = no guard)
//
// The traversal engines have one Step-1 candidate generator: incremental
// per-frame candidate lists, narrowed to the 2-hop neighborhood exactly
// when the Section 5 prune allows it (theta_other > k). They use the
// graph's attached adjacency index or, when it has none, an engine-local
// one (see core/itraversal.cc); neither is a per-request option.
// Attaching the index is a prepare-time choice
// (PrepareOptions::adjacency_index).
#ifndef KBIPLEX_API_ENUMERATOR_H_
#define KBIPLEX_API_ENUMERATOR_H_

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/solution_sink.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Runs `request` once over the caller's graph, delivering solutions to
/// `sink`: a QuerySession over PreparedGraph::Borrow(g), so no artifact is
/// attached and `g` is never mutated. Rejected requests return stats with
/// a non-empty `error` and no solutions delivered.
EnumerateStats Enumerate(const BipartiteGraph& g,
                         const EnumerateRequest& request, SolutionSink* sink);

}  // namespace kbiplex

#endif  // KBIPLEX_API_ENUMERATOR_H_
