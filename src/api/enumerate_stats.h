// The unified result record of an enumeration run. The shared fields are
// normalized across the five backend families so harnesses can compare
// runs without knowing which backend produced them; the original
// per-backend counters remain available through the optional detail
// members (at most one is engaged).
#ifndef KBIPLEX_API_ENUMERATE_STATS_H_
#define KBIPLEX_API_ENUMERATE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "baselines/imb.h"
#include "baselines/inflation_enum.h"
#include "core/traversal_options.h"

namespace kbiplex {

/// Detail block of a large-mbp run: the traversal counters plus the
/// vertices of the graph it traversed, i.e. of the request's
/// (theta_right - k.left, theta_left - k.right)-core or, summed over
/// shards, of the core's kept components (api/parallel_driver.h).
struct LargeMbpStats {
  TraversalStats traversal;
  size_t core_left = 0;
  size_t core_right = 0;
};

/// The execution plan a run took (api/parallel_driver.h).
struct ExecutionPlan {
  std::string name;   // "sequential", "components", "roots" or "masks"
  size_t shards = 0;  // shards the plan ran (1 for "sequential")
};

/// Outcome of one QuerySession run.
struct EnumerateStats {
  /// Registry name of the backend that ran (normalized to lower case).
  std::string algorithm;

  /// Non-empty iff the request was rejected before any enumeration work
  /// (unknown algorithm, unsupported asymmetric budgets, bad backend
  /// option, ...). A rejected run has completed = false.
  std::string error;

  /// Solutions delivered to the sink (after size-threshold filtering).
  uint64_t solutions = 0;

  /// Normalized work counter: solution-graph links for the traversal
  /// family, search-tree nodes for imb, inflated edges for the inflation
  /// baseline, candidate sets for brute force. Comparable only as an
  /// order of magnitude across backends.
  uint64_t work_units = 0;

  /// False iff the run was rejected or stopped early (budget exhausted,
  /// sink stop, or cancellation).
  bool completed = true;

  /// True iff the run observed its cancellation token fire.
  bool cancelled = false;

  /// True iff the inflation baseline refused the memory blow-up (the
  /// paper's OUT condition).
  bool out_of_memory = false;

  /// Wall-clock seconds of the run.
  double seconds = 0;

  /// The plan that ran; disengaged when no backend ran (rejected,
  /// pre-cancelled, or answered from the core bound). Serialized as
  /// "phases":{"plan":{...}}, the object later per-phase timings join.
  std::optional<ExecutionPlan> plan;

  // Backend-specific detail, preserved verbatim. At most one is engaged.
  std::optional<TraversalStats> traversal;
  std::optional<LargeMbpStats> large_mbp;
  std::optional<ImbStats> imb;
  std::optional<InflationBaselineStats> inflation;

  bool ok() const { return error.empty(); }

  /// One-line JSON rendering of the shared fields plus the engaged detail
  /// block; the CLI's --format json output.
  std::string ToJson() const;
};

}  // namespace kbiplex

#endif  // KBIPLEX_API_ENUMERATE_STATS_H_
