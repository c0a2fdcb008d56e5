#include "graph/adjacency_index.h"

#include <algorithm>
#include <numeric>

#include "graph/bipartite_graph.h"

namespace kbiplex {
namespace {

constexpr size_t kWordBits = 64;

size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

/// One qualifying vertex in the budget planner.
struct PlannedRow {
  uint8_t side;  // SideIndex
  VertexId v;
  size_t degree;
};

constexpr uint8_t kDense = 0;
constexpr uint8_t kSparse = 1;
constexpr uint8_t kDropped = 2;

}  // namespace

AdjacencyIndex::AdjacencyIndex(const BipartiteGraph& g, size_t min_degree,
                               size_t memory_budget_bytes)
    : kernels_(&simd::Active()) {
  if (min_degree == kAutoThreshold) {
    // Index vertices of above-average degree: they are the ones whose
    // binary searches are deepest and the ones most frequently probed.
    const size_t n = g.NumVertices();
    const size_t avg = n == 0 ? 0 : (2 * g.NumEdges()) / n;
    min_degree = std::max(kMinAutoDegree, avg);
  }
  min_degree_ = min_degree;
  memory_budget_bytes_ = memory_budget_bytes;
  Build(g, nullptr, nullptr);
}

AdjacencyIndex::AdjacencyIndex(const BipartiteGraph& g,
                               const AdjacencyIndex& prev,
                               const std::vector<VertexId>& changed_left,
                               const std::vector<VertexId>& changed_right)
    : kernels_(&simd::Active()) {
  // Inherit the predecessor's resolved threshold rather than re-running
  // the auto heuristic: the plan must be a pure function of the degrees so
  // unchanged rows keep identical layouts (the staleness threshold in
  // src/update/ bounds how far the heuristic could have drifted anyway).
  min_degree_ = prev.min_degree_;
  memory_budget_bytes_ = prev.memory_budget_bytes_;
  std::vector<char> changed[2];
  changed[0].assign(g.NumLeft(), 0);
  changed[1].assign(g.NumRight(), 0);
  for (VertexId v : changed_left) changed[0][v] = 1;
  for (VertexId u : changed_right) changed[1][u] = 1;
  Build(g, &prev, changed);
}

void AdjacencyIndex::Build(const BipartiteGraph& g, const AdjacencyIndex* prev,
                           const std::vector<char>* changed) {
  const size_t min_degree = min_degree_;
  const size_t memory_budget_bytes = memory_budget_bytes_;
  const size_t row_words[2] = {WordsFor(g.NumRight()), WordsFor(g.NumLeft())};
  row_start_[0].assign(g.NumLeft(), kNoRow);
  row_start_[1].assign(g.NumRight(), kNoRow);

  // Qualifying rows, every one dense to start with. A vertex qualifies
  // when its degree reaches the threshold, or when its dense row is no
  // larger than its CSR list (8 bytes per word against 4 per neighbor):
  // on small graphs that gives every vertex a one-word row.
  const auto qualifies = [&](size_t deg, size_t words) {
    return deg >= min_degree || deg >= 2 * words;
  };
  std::vector<PlannedRow> rows;
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    const size_t deg = g.LeftDegree(v);
    if (qualifies(deg, row_words[0])) rows.push_back({0, v, deg});
  }
  for (VertexId u = 0; u < g.NumRight(); ++u) {
    const size_t deg = g.RightDegree(u);
    if (qualifies(deg, row_words[1])) rows.push_back({1, u, deg});
  }
  const auto dense_cost = [&](const PlannedRow& r) {
    return row_words[r.side] * sizeof(uint64_t);
  };
  const auto sparse_cost = [](const PlannedRow& r) {
    return (1 + r.degree) * sizeof(uint32_t);  // count prefix + ids
  };

  std::vector<uint8_t> repr(rows.size(), kDense);
  size_t total_bytes = 0;
  for (const PlannedRow& r : rows) total_bytes += dense_cost(r);

  if (memory_budget_bytes != kNoBudget && total_bytes > memory_budget_bytes) {
    // Pass 1: demote dense -> sparse where the array container is smaller,
    // biggest byte savings first, until the pool fits.
    std::vector<size_t> order(rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    const auto savings = [&](size_t i) -> size_t {
      const size_t dense = dense_cost(rows[i]);
      const size_t sparse = sparse_cost(rows[i]);
      return dense > sparse ? dense - sparse : 0;
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return savings(a) > savings(b);
    });
    for (size_t i : order) {
      if (total_bytes <= memory_budget_bytes) break;
      const size_t saved = savings(i);
      if (saved == 0) break;  // sorted: nothing later saves either
      repr[i] = kSparse;
      total_bytes -= saved;
    }
    // Pass 2: still over budget — drop whole rows, smallest degree first
    // (the cheapest CSR searches are the ones we give back).
    if (total_bytes > memory_budget_bytes) {
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return rows[a].degree < rows[b].degree;
      });
      for (size_t i : order) {
        if (total_bytes <= memory_budget_bytes) break;
        total_bytes -=
            repr[i] == kSparse ? sparse_cost(rows[i]) : dense_cost(rows[i]);
        repr[i] = kDropped;
      }
    }
  }

  // Lay out the pools and record the per-representation outcome.
  size_t total_words = 0;
  size_t total_sparse = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const PlannedRow& r = rows[i];
    switch (repr[i]) {
      case kDense:
        row_start_[r.side][r.v] = total_words;
        total_words += row_words[r.side];
        ++num_rows_[r.side];
        ++stats_.dense_rows;
        break;
      case kSparse:
        row_start_[r.side][r.v] = kSparseTag | total_sparse;
        total_sparse += 1 + r.degree;
        ++num_rows_[r.side];
        ++stats_.sparse_rows;
        break;
      default:
        ++stats_.dropped_rows;
        break;
    }
  }
  stats_.dense_bytes = total_words * sizeof(uint64_t);
  stats_.sparse_bytes = total_sparse * sizeof(uint32_t);

  words_.assign(total_words, 0);
  sparse_pool_.assign(total_sparse, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (repr[i] == kDropped) continue;
    const PlannedRow& r = rows[i];
    const size_t start = row_start_[r.side][r.v];
    if (prev != nullptr && changed[r.side][r.v] == 0 &&
        r.v < prev->row_start_[r.side].size()) {
      // The vertex's adjacency is identical to the previous build; when
      // the old index holds its row in the same representation, the
      // container bytes transfer verbatim — a memcpy instead of the
      // per-neighbor fill below, which is where the incremental rebuild
      // earns its keep on small deltas.
      const size_t pstart = prev->row_start_[r.side][r.v];
      if (pstart != kNoRow && (pstart & kSparseTag) == (start & kSparseTag)) {
        if (start & kSparseTag) {
          const uint32_t* src =
              prev->sparse_pool_.data() + (pstart & ~kSparseTag);
          std::copy(src, src + 1 + r.degree,
                    sparse_pool_.data() + (start & ~kSparseTag));
        } else {
          const uint64_t* src = prev->words_.data() + pstart;
          std::copy(src, src + row_words[r.side], words_.data() + start);
        }
        continue;
      }
    }
    const Side side = r.side == 0 ? Side::kLeft : Side::kRight;
    const auto neighbors = g.Neighbors(side, r.v);
    if (start & kSparseTag) {
      uint32_t* out = sparse_pool_.data() + (start & ~kSparseTag);
      *out++ = static_cast<uint32_t>(neighbors.size());
      std::copy(neighbors.begin(), neighbors.end(), out);
    } else {
      uint64_t* row = words_.data() + start;
      for (VertexId w : neighbors) {
        row[static_cast<size_t>(w) >> 6] |= 1ULL << (w & 63);
      }
    }
  }
}

bool AdjacencyIndex::TestSparseRow(size_t offset, VertexId u) const {
  const uint32_t count = sparse_pool_[offset];
  const uint32_t* ids = sparse_pool_.data() + offset + 1;
  return std::binary_search(ids, ids + count, static_cast<uint32_t>(u));
}

size_t AdjacencyIndex::SparseRowConnCount(
    size_t offset, const std::vector<VertexId>& subset) const {
  const uint32_t count = sparse_pool_[offset];
  const uint32_t* ids = sparse_pool_.data() + offset + 1;
  // Sorted-merge intersection count: both the row array and the subset
  // are ascending and duplicate-free.
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i < count && j < subset.size()) {
    if (ids[i] < subset[j]) {
      ++i;
    } else if (subset[j] < ids[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

size_t AcceleratedConnCount(const AdjacencyIndex* index,
                            const BipartiteGraph& g, Side side, VertexId v,
                            const std::vector<VertexId>& subset) {
  if (index != nullptr && index->HasRow(side, v)) {
    return index->RowConnCount(side, v, subset);
  }
  return g.ConnCount(side, v, subset);
}

}  // namespace kbiplex
