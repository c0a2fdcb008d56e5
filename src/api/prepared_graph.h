// The "prepare" half of the prepare/execute API: an immutable, shareable
// PreparedGraph owns a loaded BipartiteGraph plus the expensive
// preprocessing artifacts its queries read — the hybrid bitset adjacency
// index, the degeneracy renumbering (solutions are mapped back to input
// ids automatically) and a core-decomposition bound that lets
// provably-empty queries answer instantly. Artifacts are built lazily, at
// most once, and are safe to consume from any number of concurrent
// QuerySessions (api/query_session.h):
//
//   auto prepared = PreparedGraph::Prepare(std::move(g),
//                                          {.renumber = true});
//   QuerySession session(prepared);
//   for (const EnumerateRequest& req : queries) {
//     session.Run(req, &sink);   // artifacts and scratch reused
//   }
//
// This mirrors the classic prepare/execute split of database engines: the
// one-shot Enumerate(g, request, sink) is a single QuerySession run over
// Borrow(g), with no artifacts attached.
#ifndef KBIPLEX_API_PREPARED_GRAPH_H_
#define KBIPLEX_API_PREPARED_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/traversal_options.h"
#include "graph/adjacency_index.h"
#include "graph/bipartite_graph.h"
#include "graph/components.h"
#include "graph/renumber.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace kbiplex {

namespace update {
class UpdateBatch;
struct UpdateOptions;
struct UpdateResult;
struct EpochBuilder;
}  // namespace update

/// Whether a PreparedGraph attaches the hybrid bitset adjacency index
/// (graph/adjacency_index.h) to its execution graph. Every policy yields
/// the exact same solution sets; only the work differs.
enum class AdjacencyAccelMode : uint8_t {
  /// Attach at Prepare and on every update epoch, whatever the graph's
  /// size: the index plans its rows per vertex (graph/adjacency_index.h),
  /// so a small graph gets small rows and a sparse vertex none.
  kAuto,
  /// Never attach. Engines still build their own per-run index on the
  /// graph they traverse.
  kOff,
};

/// Which artifacts a PreparedGraph applies to its execution graph.
struct PrepareOptions {
  /// Attached-adjacency-index policy (see AdjacencyAccelMode). The
  /// attached index is built once and shared by every query and session.
  AdjacencyAccelMode adjacency_index = AdjacencyAccelMode::kAuto;

  /// Row threshold forwarded to the index build
  /// (AdjacencyIndex::kAutoThreshold = heuristic).
  size_t adjacency_min_degree = AdjacencyIndex::kAutoThreshold;

  /// Memory budget (bytes) forwarded to the index build: bounds the
  /// row-container pool by demoting rows to the compact sorted-array
  /// representation and, past that, dropping rows back to CSR search
  /// (see adjacency_index.h). kNoBudget = unlimited, every row dense.
  size_t accel_budget_bytes = AdjacencyIndex::kNoBudget;

  /// Degeneracy-renumber the execution graph for cache locality (see
  /// graph/renumber.h). Queries still see and produce input-graph ids:
  /// every delivered solution is mapped back automatically.
  bool renumber = false;

  /// Answer thresholded queries whose result set the cached core bound
  /// proves empty without running a backend. On by default for prepared
  /// service graphs; the one-shot compatibility paths (Borrow, the CLI
  /// enumerate/large commands) turn it off so single-query runs keep the
  /// pre-session stats output — backend counter blocks included — byte
  /// for byte and never pay the core-bound build.
  bool core_bound_shortcut = true;
};

/// Build counters of the lazily-created artifacts; each counter is the
/// number of times the corresponding build actually ran, so a correctly
/// shared PreparedGraph reports at most 1 per artifact no matter how many
/// sessions raced to request it.
struct PrepareArtifactStats {
  int execution_graph_builds = 0;  // renumbering and/or index attach
  int core_bound_builds = 0;
  double build_seconds = 0;  // total time spent inside artifact builds

  // Memory footprint of the attached adjacency index (all zero when no
  // index was attached): total container bytes plus the per-representation
  // row counts and bytes of the roaring-style dense/sparse split, and the
  // number of qualifying rows a memory budget forced out entirely.
  size_t adjacency_memory_bytes = 0;
  size_t adjacency_dense_rows = 0;
  size_t adjacency_sparse_rows = 0;
  size_t adjacency_dropped_rows = 0;
  size_t adjacency_dense_bytes = 0;
  size_t adjacency_sparse_bytes = 0;

  /// Serializes every field as one JSON object (additive schema: new
  /// fields append, existing keys never change meaning).
  std::string ToJson() const;
};

/// Cumulative update history of a PreparedGraph's epoch chain. A freshly
/// prepared graph is epoch 0; every successful ApplyUpdates produces a
/// new immutable PreparedGraph at epoch N+1 carrying the chain's
/// counters forward. Immutable on a published epoch — the update
/// machinery fills it in before the new epoch becomes visible.
struct UpdateLineage {
  uint64_t epoch = 0;              // position in the chain (0 = fresh)
  uint64_t updates_applied = 0;    // successful ApplyUpdates in the chain
  uint64_t edges_inserted = 0;     // cumulative real inserts
  uint64_t edges_deleted = 0;      // cumulative real deletes
  uint64_t full_rebuilds = 0;      // applies past the staleness threshold
  /// Artifacts carried across an epoch boundary by patching (spliced
  /// CSR + reused permutation, patched index rows, carried core bound)
  /// vs artifacts an apply invalidated outright — they rebuild from
  /// scratch, eagerly or on first use (a full rebuild invalidates every
  /// built artifact).
  uint64_t artifacts_incremental = 0;
  uint64_t artifacts_rebuilt = 0;
  double apply_seconds = 0;  // total wall time inside ApplyUpdates

  /// One JSON object, additive schema (same contract as
  /// PrepareArtifactStats::ToJson).
  std::string ToJson() const;
};

/// A graph prepared for repeated querying. Construct through Prepare()
/// (owning) or Borrow() (non-owning view, used by the one-shot
/// Enumerate); instances are immutable from the caller's point of
/// view and every accessor is safe to call concurrently.
class PreparedGraph {
 public:
  /// Takes ownership of `g` and prepares it under `options`. Artifacts
  /// are built lazily on first use; call Warmup() to build them eagerly.
  static std::shared_ptr<const PreparedGraph> Prepare(
      BipartiteGraph g, PrepareOptions options = {});

  /// Wraps a caller-owned graph without copying it and without ever
  /// mutating it: no index is attached and no renumbering happens, so
  /// execution matches a direct run on `g` exactly. `g` must outlive the
  /// returned object.
  static std::shared_ptr<const PreparedGraph> Borrow(const BipartiteGraph& g);

  PreparedGraph(const PreparedGraph&) = delete;
  PreparedGraph& operator=(const PreparedGraph&) = delete;

  /// The input graph, in input ids, exactly as handed to Prepare/Borrow.
  const BipartiteGraph& graph() const { return *graph_; }

  const PrepareOptions& options() const { return options_; }

  /// The graph queries execute on: the input graph with the prepare-time
  /// artifacts applied (renumbered ids and/or an attached adjacency
  /// index). Built on first call, then cached; thread-safe.
  const BipartiteGraph& ExecutionGraph() const;

  /// True iff the execution graph uses renumbered ids (solutions must be
  /// mapped back through Renumbering()).
  bool renumbered() const { return options_.renumber; }

  /// True iff this wraps a caller-owned graph (Borrow). Borrowed graphs
  /// serve the one-shot Enumerate, so sessions apply none of
  /// the session-only execution changes (e.g. the core-bound
  /// short-circuit) to them.
  bool borrowed() const { return owned_ == nullptr; }

  /// The id maps of the renumbered execution graph. Requires renumbered().
  const RenumberedGraph& Renumbering() const;

  /// Connected-component labeling of the execution graph, computed on
  /// every call: no query reads it (the execution plan labels the
  /// request's peeled core itself, api/parallel_driver.h), so nothing is
  /// cached.
  ComponentLabeling Components() const;

  /// The largest a such that the (a,a)-core of the graph is non-empty
  /// (0 for an edgeless graph). Any k-biplex whose thresholds demand
  /// per-vertex degrees above this bound cannot exist, so sessions answer
  /// such queries instantly. Built on first call, then cached.
  size_t MaxUniformCore() const;

  /// Builds every artifact now (prepare-heavy, execute-light servers):
  /// the execution graph and the core bound.
  void Warmup() const;

  /// Snapshot of the artifact build counters.
  PrepareArtifactStats artifact_stats() const;

  /// Position of this instance in its update chain (0 = fresh Prepare).
  uint64_t epoch() const { return lineage_.epoch; }

  /// The chain's cumulative update history.
  const UpdateLineage& lineage() const { return lineage_; }

  /// Applies an edge-update batch copy-on-write: this instance is left
  /// untouched (sessions borrowing it keep their snapshot), and on
  /// success the result carries a new immutable PreparedGraph at epoch
  /// N+1 with the same PrepareOptions. Artifacts this epoch already built
  /// are carried into the successor incrementally — spliced CSR rows,
  /// the reused degeneracy permutation, patched adjacency-index rows, a
  /// monotone core bound — unless the delta exceeds
  /// options.max_delta_fraction of the edge count, in which case the
  /// successor is rebuilt from scratch (lazy artifacts, like a fresh
  /// Prepare). Borrowed graphs reject updates.
  /// Thread-safe against concurrent queries; concurrent ApplyUpdates
  /// calls on the same instance are safe but produce sibling epochs —
  /// serialize updates per graph (the serving registry does) to keep a
  /// linear chain. Defined with the update subsystem (src/update/).
  update::UpdateResult ApplyUpdates(const update::UpdateBatch& batch,
                                    const update::UpdateOptions& options) const;

 private:
  /// The artifact build counters behind their own capability, so the
  /// thread-safety analysis can verify every access (the surrounding
  /// artifact members are published through std::call_once, which the
  /// analysis cannot model — see the invariant note below).
  struct BuildCounters {
    mutable Mutex mu;
    mutable PrepareArtifactStats stats KBIPLEX_GUARDED_BY(mu);

    /// Bumps one build counter and the build-seconds total.
    void Count(int PrepareArtifactStats::*counter, double seconds) const
        KBIPLEX_EXCLUDES(mu) {
      MutexLock lock(&mu);
      stats.*counter += 1;
      stats.build_seconds += seconds;
    }

    PrepareArtifactStats Snapshot() const KBIPLEX_EXCLUDES(mu) {
      MutexLock lock(&mu);
      return stats;
    }

    /// Records the memory footprint of the attached adjacency index.
    void RecordAdjacency(const AdjacencyIndex& index) const
        KBIPLEX_EXCLUDES(mu) {
      const AdjacencyIndex::RepresentationStats& rep =
          index.representation_stats();
      MutexLock lock(&mu);
      stats.adjacency_memory_bytes = index.MemoryBytes();
      stats.adjacency_dense_rows = rep.dense_rows;
      stats.adjacency_sparse_rows = rep.sparse_rows;
      stats.adjacency_dropped_rows = rep.dropped_rows;
      stats.adjacency_dense_bytes = rep.dense_bytes;
      stats.adjacency_sparse_bytes = rep.sparse_bytes;
    }
  };

  /// The epoch builder constructs successor instances directly (private
  /// constructor, lineage, pre-populated artifacts); see
  /// update/incremental.cc.
  friend struct update::EpochBuilder;

  PreparedGraph(BipartiteGraph g, PrepareOptions options);
  PreparedGraph(const BipartiteGraph* view, PrepareOptions options);

  void BuildExecutionGraph() const;

  PrepareOptions options_;
  // Owning mode stores the graph; view mode points at the caller's.
  // Mutable because attaching the lazily-built adjacency index is a
  // const-from-the-outside operation on the owned graph.
  mutable std::unique_ptr<BipartiteGraph> owned_;
  const BipartiteGraph* graph_ = nullptr;

  // Lazily-built artifacts. Invariant: each artifact member below is
  // written only inside the std::call_once of its once_flag and read only
  // after that call_once returned, which sequences the write before every
  // read — a publication pattern the thread-safety analysis cannot
  // express with GUARDED_BY (there is no mutex) but TSan verifies
  // dynamically (session_test builds artifacts from 8 racing sessions).
  mutable std::once_flag exec_once_;
  mutable RenumberedGraph renumbering_;        // engaged iff options_.renumber
  mutable const BipartiteGraph* exec_graph_ = nullptr;

  mutable std::once_flag core_bound_once_;
  mutable size_t max_uniform_core_ = 0;

  // Built-ness probes for the update machinery: each flag is stored
  // (release) as the last step of its artifact's call_once lambda and
  // loaded (acquire) by ApplyUpdates to decide which artifacts the
  // successor epoch should carry incrementally — without forcing builds
  // the predecessor never performed. Same publication invariant as the
  // artifact members above.
  mutable std::atomic<bool> exec_built_{false};
  mutable std::atomic<bool> core_bound_built_{false};

  // Epoch chain history; written only between construction and
  // publication (EpochBuilder), immutable afterwards.
  UpdateLineage lineage_;

  BuildCounters counters_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_API_PREPARED_GRAPH_H_
