#include "update/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace kbiplex {
namespace update {
namespace {

using Edge = BipartiteGraph::Edge;

/// Sorted, duplicate-free endpoint ids of one side of a delta.
std::vector<VertexId> TouchedVertices(const std::vector<Edge>& insert,
                                      const std::vector<Edge>& erase,
                                      bool left_side) {
  std::vector<VertexId> out;
  out.reserve(insert.size() + erase.size());
  for (const Edge& e : insert) out.push_back(left_side ? e.first : e.second);
  for (const Edge& e : erase) out.push_back(left_side ? e.first : e.second);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Largest degree on either side — a trivially sound upper bound on the
/// degeneracy, used to clamp the carried core bound after inserts.
size_t MaxDegree(const BipartiteGraph& g) {
  size_t m = 0;
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    m = std::max(m, g.LeftDegree(v));
  }
  for (VertexId u = 0; u < g.NumRight(); ++u) {
    m = std::max(m, g.RightDegree(u));
  }
  return m;
}

}  // namespace

/// Friend of PreparedGraph: builds successor epochs through the private
/// constructor, stamping the lineage and pre-populating the carried
/// artifacts via their call_once flags before the instance is published.
struct EpochBuilder {
  static UpdateResult Apply(const PreparedGraph& old, const UpdateBatch& batch,
                            const UpdateOptions& options) {
    WallTimer timer;
    UpdateResult out;
    if (old.borrowed()) {
      out.error = "cannot update a borrowed graph";
      return out;
    }
    NormalizedDelta delta;
    if (std::string err = batch.Normalize(old.graph(), &delta);
        !err.empty()) {
      out.error = err;
      return out;
    }
    out.edges_inserted = delta.insert.size();
    out.edges_deleted = delta.erase.size();
    out.noop_inserts = delta.noop_inserts;
    out.noop_deletes = delta.noop_deletes;

    UpdateLineage lineage = old.lineage_;
    lineage.epoch += 1;
    lineage.updates_applied += 1;
    lineage.edges_inserted += delta.insert.size();
    lineage.edges_deleted += delta.erase.size();

    const double fraction =
        static_cast<double>(delta.size()) /
        static_cast<double>(std::max<size_t>(1, old.graph().NumEdges()));
    const bool rebuild =
        options.force_rebuild || fraction > options.max_delta_fraction;

    std::shared_ptr<PreparedGraph> next(new PreparedGraph(
        old.graph().WithEdgeDelta(delta.insert, delta.erase), old.options_));

    const bool old_exec = old.exec_built_.load(std::memory_order_acquire);
    const bool old_core =
        old.core_bound_built_.load(std::memory_order_acquire);

    if (rebuild) {
      // Past the staleness threshold: every artifact the predecessor had
      // built is invalidated and rebuilds from scratch (lazily, exactly
      // like a fresh Prepare).
      lineage.full_rebuilds += 1;
      lineage.artifacts_rebuilt += (old_exec ? 1 : 0) + (old_core ? 1 : 0);
      out.rebuilt = true;
    } else {
      // The delta in execution-graph ids: identical to the input-space
      // delta unless the execution graph is renumbered.
      std::vector<Edge> exec_ins = delta.insert;
      std::vector<Edge> exec_era = delta.erase;
      if (old_exec && old.options_.renumber) {
        const RenumberedGraph& ren = old.renumbering_;
        for (Edge& e : exec_ins) {
          e = {ren.old_to_new_left[e.first], ren.old_to_new_right[e.second]};
        }
        for (Edge& e : exec_era) {
          e = {ren.old_to_new_left[e.first], ren.old_to_new_right[e.second]};
        }
        std::sort(exec_ins.begin(), exec_ins.end());
        std::sort(exec_era.begin(), exec_era.end());
      }

      if (old_exec) {
        PatchExecutionGraph(old, *next, exec_ins, exec_era);
        lineage.artifacts_incremental += 1;
      }
      if (old_core) {
        // Soundness, not exactness: the short-circuit only needs an upper
        // bound on the degeneracy. Deletes never raise it, each insert
        // raises it by at most one, and it never exceeds the maximum
        // degree — so the carried bound stays a valid upper bound and an
        // exact one returns at the next full rebuild.
        std::call_once(next->core_bound_once_, [&] {
          size_t bound = old.max_uniform_core_ + delta.insert.size();
          if (!delta.insert.empty()) {
            bound = std::min(bound, MaxDegree(next->ExecutionGraph()));
          }
          next->max_uniform_core_ = bound;
          next->core_bound_built_.store(true, std::memory_order_release);
        });
        lineage.artifacts_incremental += 1;
      }
    }

    out.seconds = timer.ElapsedSeconds();
    lineage.apply_seconds += out.seconds;
    next->lineage_ = lineage;
    out.prepared = std::move(next);
    return out;
  }

 private:
  /// Pre-populates the successor's execution graph: the degeneracy
  /// permutation is reused (vertex sets are fixed across updates) with
  /// the renumbered CSR spliced in place, and the adjacency index — when
  /// the policy attaches one — is patched row-wise from the
  /// predecessor's. `exec_ins` / `exec_era` are the delta in execution
  /// ids, sorted by (left, right).
  static void PatchExecutionGraph(const PreparedGraph& old, PreparedGraph& next,
                                  const std::vector<Edge>& exec_ins,
                                  const std::vector<Edge>& exec_era) {
    std::call_once(next.exec_once_, [&] {
      WallTimer t;
      BipartiteGraph* target = next.owned_.get();
      if (next.options_.renumber) {
        const RenumberedGraph& ren = old.renumbering_;
        next.renumbering_.left_to_old = ren.left_to_old;
        next.renumbering_.right_to_old = ren.right_to_old;
        next.renumbering_.old_to_new_left = ren.old_to_new_left;
        next.renumbering_.old_to_new_right = ren.old_to_new_right;
        next.renumbering_.graph = ren.graph.WithEdgeDelta(exec_ins, exec_era);
        target = &next.renumbering_.graph;
      }
      if (next.options_.adjacency_index != AdjacencyAccelMode::kOff &&
          target != nullptr) {
        const AdjacencyIndex* prev_index =
            old.exec_graph_->adjacency_index();
        if (prev_index != nullptr) {
          target->AttachAdjacencyIndex(std::make_shared<const AdjacencyIndex>(
              *target, *prev_index,
              TouchedVertices(exec_ins, exec_era, /*left_side=*/true),
              TouchedVertices(exec_ins, exec_era, /*left_side=*/false)));
        } else {
          target->BuildAdjacencyIndex(next.options_.adjacency_min_degree,
                                      next.options_.accel_budget_bytes);
        }
        next.counters_.RecordAdjacency(*target->adjacency_index());
      }
      next.exec_graph_ = target != nullptr ? target : next.graph_;
      next.counters_.Count(&PrepareArtifactStats::execution_graph_builds,
                           t.ElapsedSeconds());
      next.exec_built_.store(true, std::memory_order_release);
    });
  }
};

}  // namespace update

update::UpdateResult PreparedGraph::ApplyUpdates(
    const update::UpdateBatch& batch,
    const update::UpdateOptions& options) const {
  return update::EpochBuilder::Apply(*this, batch, options);
}

}  // namespace kbiplex
