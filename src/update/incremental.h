// Copy-on-write epoch construction for PreparedGraph: apply a normalized
// edge delta to an existing epoch, producing a new immutable PreparedGraph
// whose cheap artifacts are carried forward incrementally — work
// proportional to the delta, not the graph — in the spirit of Berkholz,
// Keppeler and Schweikardt's "Answering FO+MOD queries under updates"
// (re-derive only what the delta touched):
//
//   - base and renumbered CSR: per-row splice (BipartiteGraph::
//     WithEdgeDelta); the degeneracy permutation itself is reused —
//     vertex sets never change across updates, so the maps stay valid and
//     only their *quality* drifts, which the staleness threshold bounds;
//   - adjacency index: the deterministic budget planner re-runs over the
//     new degrees, and every row the delta did not touch is copied
//     byte-for-byte from the previous epoch's index;
//   - (a,a)-core bound: deletes only shrink the degeneracy, so the old
//     bound stays a sound upper bound; inserts raise it by at most one
//     each, and the carried bound min(old + inserts, max degree) stays
//     sound — an exact bound returns at the next full rebuild.
//
// Past the staleness threshold (UpdateOptions::max_delta_fraction) the
// patching is abandoned: the new epoch starts with lazy artifacts exactly
// like a fresh Prepare, and every artifact the predecessor had built is
// counted as rebuilt. See docs/incremental_updates.md.
#ifndef KBIPLEX_UPDATE_INCREMENTAL_H_
#define KBIPLEX_UPDATE_INCREMENTAL_H_

#include <cstddef>
#include <memory>
#include <string>

#include "api/prepared_graph.h"
#include "update/update_batch.h"

namespace kbiplex {
namespace update {

/// Per-apply policy knobs.
struct UpdateOptions {
  /// Staleness threshold: when the normalized delta exceeds this fraction
  /// of the predecessor's edge count, artifact patching is skipped and
  /// the new epoch rebuilds from scratch (counted in
  /// UpdateLineage::full_rebuilds). The default tolerates a 10% drift —
  /// past that, patched permutations and stale bounds stop paying for
  /// themselves.
  double max_delta_fraction = 0.10;

  /// Rebuild unconditionally, as if the threshold were exceeded.
  bool force_rebuild = false;
};

/// Outcome of one ApplyUpdates call.
struct UpdateResult {
  /// The new epoch (null on error). The predecessor is untouched; holders
  /// of its shared_ptr keep a consistent snapshot until they release it.
  std::shared_ptr<const PreparedGraph> prepared;
  size_t edges_inserted = 0;  // real inserts applied
  size_t edges_deleted = 0;   // real deletes applied
  size_t noop_inserts = 0;    // dropped: edge already present
  size_t noop_deletes = 0;    // dropped: edge not present
  bool rebuilt = false;       // the apply took the full-rebuild path
  double seconds = 0;         // wall time of this apply
  std::string error;          // non-empty iff the apply failed

  bool ok() const { return error.empty(); }
};

}  // namespace update
}  // namespace kbiplex

#endif  // KBIPLEX_UPDATE_INCREMENTAL_H_
