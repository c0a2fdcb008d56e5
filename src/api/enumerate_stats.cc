#include "api/enumerate_stats.h"

#include <sstream>
#include <utility>

#include "util/json.h"

namespace kbiplex {

using json::AppendDouble;
using json::AppendEscaped;
using json::Bool;

EnumerateStats RejectedStats(std::string message) {
  EnumerateStats out;
  out.error = std::move(message);
  out.completed = false;
  return out;
}

std::string EnumerateStats::ToJson() const {
  std::ostringstream os;
  os << "{\"algorithm\":";
  AppendEscaped(os, algorithm);
  if (!error.empty()) {
    os << ",\"error\":";
    AppendEscaped(os, error);
  }
  os << ",\"solutions\":" << solutions << ",\"work_units\":" << work_units
     << ",\"completed\":" << Bool(completed)
     << ",\"cancelled\":" << Bool(cancelled)
     << ",\"out_of_memory\":" << Bool(out_of_memory) << ",\"seconds\":";
  AppendDouble(os, seconds);
  if (plan.has_value()) {
    os << ",\"phases\":{\"plan\":{\"name\":";
    AppendEscaped(os, plan->name);
    os << ",\"shards\":" << plan->shards << "}}";
  }
  if (traversal.has_value()) {
    const TraversalStats& t = *traversal;
    os << ",\"traversal\":{\"solutions_found\":" << t.solutions_found
       << ",\"solutions_emitted\":" << t.solutions_emitted
       << ",\"links\":" << t.links << ",\"links_pruned_right_shrinking\":"
       << t.links_pruned_right_shrinking
       << ",\"links_pruned_exclusion\":" << t.links_pruned_exclusion
       << ",\"almost_sat_graphs\":" << t.almost_sat_graphs
       << ",\"local_solutions\":" << t.local_solutions
       << ",\"dedup_hits\":" << t.dedup_hits
       << ",\"max_stack_depth\":" << t.max_stack_depth
       << ",\"candidates_generated\":" << t.candidates_generated
       << ",\"candidates_pruned\":" << t.candidates_pruned
       << ",\"adjacency_tests\":" << t.local_stats.adjacency_tests
       << ",\"b_subsets\":" << t.local_stats.b_subsets
       << ",\"a_subsets\":" << t.local_stats.a_subsets << "}";
  }
  if (large_mbp.has_value()) {
    const LargeMbpStats& l = *large_mbp;
    os << ",\"large_mbp\":{\"core_left\":" << l.core_left
       << ",\"core_right\":" << l.core_right
       << ",\"links\":" << l.traversal.links
       << ",\"solutions_found\":" << l.traversal.solutions_found
       << ",\"candidates_generated\":" << l.traversal.candidates_generated
       << ",\"candidates_pruned\":" << l.traversal.candidates_pruned
       << ",\"adjacency_tests\":" << l.traversal.local_stats.adjacency_tests
       << "}";
  }
  if (imb.has_value()) {
    os << ",\"imb\":{\"nodes\":" << imb->nodes
       << ",\"solutions\":" << imb->solutions << "}";
  }
  if (inflation.has_value()) {
    os << ",\"inflation\":{\"inflated_edges\":" << inflation->inflated_edges
       << ",\"solutions\":" << inflation->solutions
       << ",\"out_of_budget\":" << Bool(inflation->out_of_budget) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace kbiplex
