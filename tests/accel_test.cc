// Tests of the hot-path acceleration stack: the hybrid bitset adjacency
// index, the degeneracy renumbering pass, the 2-hop candidate generator,
// the EnumAlmostSat workspace — and, the load-bearing property, that every
// registered algorithm delivers exactly the brute-force solution set with
// acceleration engaged, sequentially and under --threads > 1.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "core/brute_force.h"
#include "core/btraversal.h"
#include "core/enum_almost_sat.h"
#include "graph/adjacency_index.h"
#include "graph/renumber.h"
#include "test_support.h"

namespace kbiplex {
namespace {

using testing_support::CollectRequest;
using testing_support::CollectWith;
using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::RandomGraphCase;
using testing_support::ToString;

// ------------------------------------------------------- adjacency index --

TEST(AdjacencyIndex, AgreesWithCsrOnEveryPair) {
  for (const RandomGraphCase& c :
       {RandomGraphCase{7, 9, 0.4, 21}, RandomGraphCase{12, 5, 0.7, 22},
        RandomGraphCase{10, 10, 0.15, 23}}) {
    BipartiteGraph g = MakeRandomGraph(c);
    // min_degree = 1: every non-isolated vertex gets a row.
    AdjacencyIndex index(g, 1);
    for (VertexId l = 0; l < g.NumLeft(); ++l) {
      for (VertexId r = 0; r < g.NumRight(); ++r) {
        const bool expect = g.HasEdge(l, r);
        if (index.HasRow(Side::kLeft, l)) {
          EXPECT_EQ(index.TestRow(Side::kLeft, l, r), expect);
        }
        if (index.HasRow(Side::kRight, r)) {
          EXPECT_EQ(index.TestRow(Side::kRight, r, l), expect);
        }
      }
    }
  }
}

TEST(AdjacencyIndex, AttachedIndexKeepsIsAdjacentExact) {
  BipartiteGraph plain = MakeRandomGraph({11, 8, 0.5, 24});
  BipartiteGraph indexed = plain;
  indexed.BuildAdjacencyIndex(/*min_degree=*/1);
  ASSERT_NE(indexed.adjacency_index(), nullptr);
  EXPECT_EQ(plain.adjacency_index(), nullptr);
  for (VertexId l = 0; l < plain.NumLeft(); ++l) {
    for (VertexId r = 0; r < plain.NumRight(); ++r) {
      EXPECT_EQ(indexed.IsAdjacent(Side::kLeft, l, r),
                plain.IsAdjacent(Side::kLeft, l, r));
      EXPECT_EQ(indexed.IsAdjacent(Side::kRight, r, l),
                plain.IsAdjacent(Side::kRight, r, l));
    }
  }
}

TEST(AdjacencyIndex, RowConnCountMatchesConnCount) {
  BipartiteGraph g = MakeRandomGraph({9, 13, 0.45, 25});
  AdjacencyIndex index(g, 1);
  const std::vector<VertexId> subset = {0, 2, 3, 7, 11};
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    if (!index.HasRow(Side::kLeft, l)) continue;
    EXPECT_EQ(index.RowConnCount(Side::kLeft, l, subset),
              g.ConnCount(Side::kLeft, l, subset));
  }
  EXPECT_EQ(AcceleratedConnCount(&index, g, Side::kLeft, 0, subset),
            g.ConnCount(Side::kLeft, 0, subset));
  EXPECT_EQ(AcceleratedConnCount(nullptr, g, Side::kLeft, 0, subset),
            g.ConnCount(Side::kLeft, 0, subset));
}

TEST(AdjacencyIndex, AutoThresholdSkipsSparseVertices) {
  // 3-regular-ish graph: auto threshold is at least kMinAutoDegree = 16,
  // so no rows are built.
  BipartiteGraph g = MakeRandomGraph({20, 20, 0.12, 26});
  AdjacencyIndex index(g);
  EXPECT_GE(index.min_degree(), AdjacencyIndex::kMinAutoDegree);
  EXPECT_EQ(index.NumRows(Side::kLeft), 0u);
  EXPECT_EQ(index.NumRows(Side::kRight), 0u);
}

TEST(AdjacencyIndex, InduceAndTransposePropagateTheIndex) {
  BipartiteGraph g = MakeRandomGraph({10, 10, 0.5, 27});
  g.BuildAdjacencyIndex(1);
  InducedSubgraph sub = Induce(g, {0, 1, 2, 5}, {1, 3, 4, 8});
  ASSERT_NE(sub.graph.adjacency_index(), nullptr);
  for (VertexId l = 0; l < sub.graph.NumLeft(); ++l) {
    for (VertexId r = 0; r < sub.graph.NumRight(); ++r) {
      EXPECT_EQ(sub.graph.IsAdjacent(Side::kLeft, l, r),
                g.HasEdge(sub.left_map[l], sub.right_map[r]));
    }
  }
  BipartiteGraph t = g.Transposed();
  ASSERT_NE(t.adjacency_index(), nullptr);
  for (VertexId l = 0; l < t.NumLeft(); ++l) {
    for (VertexId r = 0; r < t.NumRight(); ++r) {
      EXPECT_EQ(t.IsAdjacent(Side::kLeft, l, r), g.HasEdge(r, l));
    }
  }
}

// -------------------------------------------- compressed representations --

TEST(AdjacencyIndex, NoBudgetKeepsEveryRowDense) {
  BipartiteGraph g = MakeRandomGraph({20, 20, 0.4, 71});
  AdjacencyIndex index(g, 1);
  const AdjacencyIndex::RepresentationStats& rep =
      index.representation_stats();
  EXPECT_GT(rep.dense_rows, 0u);
  EXPECT_EQ(rep.sparse_rows, 0u);
  EXPECT_EQ(rep.dropped_rows, 0u);
  EXPECT_EQ(rep.sparse_bytes, 0u);
  EXPECT_EQ(index.MemoryBytes(), rep.total_bytes());
  EXPECT_EQ(index.memory_budget_bytes(), AdjacencyIndex::kNoBudget);
}

TEST(AdjacencyIndex, BudgetDemotesToSparseAndNeverExceedsTheBound) {
  // Wide opposite side + low degree: a dense row costs 4 words (32
  // bytes) while a sparse run at average degree ~2 costs ~12 bytes, so
  // demotion genuinely compresses instead of degenerating to drops.
  BipartiteGraph g = MakeRandomGraph({200, 200, 0.01, 72});
  AdjacencyIndex dense(g, 1);
  const size_t dense_bytes = dense.MemoryBytes();
  ASSERT_GT(dense_bytes, 0u);
  // Budgets sweeping from generous to starved: the pool must fit each
  // one, and tighter budgets must engage sparse rows and then drops.
  for (size_t budget :
       {dense_bytes, dense_bytes / 2, dense_bytes / 4, size_t{64}}) {
    AdjacencyIndex bounded(g, 1, budget);
    EXPECT_LE(bounded.MemoryBytes(), budget) << "budget=" << budget;
    EXPECT_EQ(bounded.memory_budget_bytes(), budget);
    const AdjacencyIndex::RepresentationStats& rep =
        bounded.representation_stats();
    EXPECT_EQ(rep.total_bytes(), bounded.MemoryBytes());
    // Every qualifying row is accounted for in exactly one bucket.
    EXPECT_EQ(rep.dense_rows + rep.sparse_rows + rep.dropped_rows,
              dense.representation_stats().dense_rows);
  }
  // A halved budget on this sparse-ish graph demotes without dropping
  // (the sorted arrays fit comfortably) — the compression actually
  // engages rather than degenerating to row drops.
  AdjacencyIndex halved(g, 1, dense_bytes / 2);
  EXPECT_GT(halved.representation_stats().sparse_rows, 0u);
  EXPECT_EQ(halved.representation_stats().dropped_rows, 0u);
}

TEST(AdjacencyIndex, RepresentationsAgreeAtWordBoundarySizes) {
  // Opposite-side sizes straddling 64-bit word boundaries: dense rows get
  // tail words, sparse rows get the same ids; every representation must
  // answer TestRow/RowConnCount identically to the CSR ground truth.
  for (size_t nr : {63u, 64u, 65u, 127u, 129u}) {
    BipartiteGraph g = MakeRandomGraph({12, nr, 0.3, 73 + nr});
    AdjacencyIndex dense(g, 1);
    AdjacencyIndex sparse(g, 1, size_t{1});  // starved: sparse or dropped
    Rng rng(74 + nr);
    std::vector<VertexId> subset;
    for (VertexId r = 0; r < g.NumRight(); ++r) {
      if (rng.NextBool(0.5)) subset.push_back(r);
    }
    for (VertexId l = 0; l < g.NumLeft(); ++l) {
      const size_t expect_count = g.ConnCount(Side::kLeft, l, subset);
      for (const AdjacencyIndex* index : {&dense, &sparse}) {
        if (!index->HasRow(Side::kLeft, l)) continue;
        EXPECT_EQ(index->RowConnCount(Side::kLeft, l, subset), expect_count)
            << "nr=" << nr << " l=" << l;
        for (VertexId r = 0; r < g.NumRight(); ++r) {
          ASSERT_EQ(index->TestRow(Side::kLeft, l, r), g.HasEdge(l, r))
              << "nr=" << nr << " l=" << l << " r=" << r;
        }
      }
    }
    // The starved index must have engaged the compact representation.
    const AdjacencyIndex::RepresentationStats& rep =
        sparse.representation_stats();
    EXPECT_EQ(rep.dense_rows, 0u) << "nr=" << nr;
  }
}

TEST(AdjacencyIndex, BudgetPropagatesThroughInduceAndTranspose) {
  BipartiteGraph g = MakeRandomGraph({14, 14, 0.4, 75});
  g.BuildAdjacencyIndex(1, /*memory_budget_bytes=*/256);
  ASSERT_NE(g.adjacency_index(), nullptr);
  EXPECT_EQ(g.adjacency_index()->memory_budget_bytes(), 256u);
  InducedSubgraph sub = Induce(g, {0, 1, 2, 3, 4}, {0, 2, 4, 6, 8});
  ASSERT_NE(sub.graph.adjacency_index(), nullptr);
  EXPECT_EQ(sub.graph.adjacency_index()->memory_budget_bytes(), 256u);
  BipartiteGraph t = g.Transposed();
  ASSERT_NE(t.adjacency_index(), nullptr);
  EXPECT_EQ(t.adjacency_index()->memory_budget_bytes(), 256u);
  EXPECT_LE(t.adjacency_index()->MemoryBytes(), 256u);
}

// ------------------------------------------------------------- renumber --

TEST(Renumber, MapsArePermutationsAndEdgesSurvive) {
  BipartiteGraph g = MakeRandomGraph({14, 9, 0.3, 31});
  RenumberedGraph r = RenumberByDegeneracy(g);
  ASSERT_EQ(r.graph.NumLeft(), g.NumLeft());
  ASSERT_EQ(r.graph.NumRight(), g.NumRight());
  ASSERT_EQ(r.graph.NumEdges(), g.NumEdges());
  std::set<VertexId> seen_left(r.left_to_old.begin(), r.left_to_old.end());
  std::set<VertexId> seen_right(r.right_to_old.begin(),
                                r.right_to_old.end());
  EXPECT_EQ(seen_left.size(), g.NumLeft());
  EXPECT_EQ(seen_right.size(), g.NumRight());
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    EXPECT_EQ(r.old_to_new_left[r.left_to_old[v]], v);
  }
  // Every renumbered edge maps back to an original edge and vice versa.
  for (VertexId l = 0; l < r.graph.NumLeft(); ++l) {
    for (VertexId rr : r.graph.LeftNeighbors(l)) {
      EXPECT_TRUE(g.HasEdge(r.left_to_old[l], r.right_to_old[rr]));
    }
  }
}

TEST(Renumber, DenseVerticesClusterAtLowIds) {
  // A star-heavy graph: left 0 connects to everything, the rest are
  // pendant. The hub must land in the first position of the new order.
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId r = 0; r < 8; ++r) edges.push_back({0, r});
  edges.push_back({1, 0});
  edges.push_back({2, 1});
  BipartiteGraph g = MakeGraph(6, 8, std::move(edges));
  RenumberedGraph r = RenumberByDegeneracy(g);
  EXPECT_EQ(r.left_to_old[0], 0u);  // the hub gets the smallest id
}

TEST(Renumber, EnumerationAgreesAfterMapBack) {
  for (const RandomGraphCase& c :
       {RandomGraphCase{7, 7, 0.5, 32}, RandomGraphCase{9, 6, 0.35, 33}}) {
    BipartiteGraph g = MakeRandomGraph(c);
    RenumberedGraph r = RenumberByDegeneracy(g);
    for (int k : {1, 2}) {
      EnumerateRequest req;
      req.algorithm = "itraversal";
      req.k = KPair::Uniform(k);
      std::vector<Biplex> direct = CollectRequest(g, req);
      std::vector<Biplex> renumbered = CollectRequest(r.graph, req);
      std::vector<Biplex> mapped;
      for (const Biplex& b : renumbered) {
        VertexSetPair p = r.MapBack(b.left, b.right);
        mapped.push_back(Biplex{std::move(p.left), std::move(p.right)});
      }
      std::sort(mapped.begin(), mapped.end());
      EXPECT_EQ(mapped, direct) << "k=" << k;
    }
  }
}

// ------------------------------------ acceleration == brute force, all 8 --

struct AccelCase {
  KPair k;
  size_t theta_left;
  size_t theta_right;
};

/// Every algorithm, every acceleration surface: the plain graph (the
/// engine's own defaults, including the 2-hop generator where its gate
/// holds) and the graph with an attached index must both reproduce the
/// brute-force solution set exactly, sequentially and under the parallel
/// driver.
TEST(AccelAgreement, EveryAlgorithmMatchesBruteForce) {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(MakeRandomGraph({6, 6, 0.5, 34}));
  graphs.push_back(MakeRandomGraph({8, 5, 0.65, 35}));
  graphs.push_back(MakeRandomGraph({7, 9, 0.3, 36}));

  const std::vector<AccelCase> cases = {
      {KPair::Uniform(1), 0, 0},
      {KPair::Uniform(1), 2, 2},  // 2-hop gate engaged (theta > k)
      {KPair::Uniform(2), 0, 0},
      {KPair::Uniform(2), 3, 3},
      {KPair{1, 2}, 2, 2},  // asymmetric, traversal family only
  };
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const BipartiteGraph& plain = graphs[gi];
    BipartiteGraph indexed = plain;
    indexed.BuildAdjacencyIndex(/*min_degree=*/1);
    for (const AccelCase& c : cases) {
      const std::vector<Biplex> expect =
          FilterBySize(BruteForceMaximalBiplexes(plain, c.k), c.theta_left,
                       c.theta_right);
      for (const std::string& name : registry.Names()) {
        AlgorithmInfo info = *registry.Find(name);
        if (!info.supports_asymmetric_k && !c.k.IsUniform()) continue;
        if (info.requires_theta &&
            (c.theta_left < 1 || c.theta_right < 1)) {
          continue;
        }
        EnumerateRequest req;
        req.algorithm = name;
        req.k = c.k;
        req.theta_left = c.theta_left;
        req.theta_right = c.theta_right;
        const BipartiteGraph* runs[] = {&plain, &indexed};
        for (const BipartiteGraph* g : runs) {
          const char* graph_kind = g == &plain ? "plain" : "indexed";
          EnumerateStats stats;
          std::vector<Biplex> got = CollectRequest(*g, req, &stats);
          ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
          ASSERT_EQ(got, expect)
              << name << " " << graph_kind << " graph=" << gi << " k=("
              << c.k.left << "," << c.k.right << ") theta=("
              << c.theta_left << "," << c.theta_right << ")\nexpect:\n"
              << ToString(expect) << "got:\n"
              << ToString(got);
        }

        // The indexed graph under the parallel driver must also match.
        EnumerateRequest par_req = req;
        par_req.threads = 4;
        EnumerateStats par_stats;
        std::vector<Biplex> par = CollectRequest(indexed, par_req, &par_stats);
        ASSERT_TRUE(par_stats.ok()) << name << ": " << par_stats.error;
        ASSERT_EQ(par, expect) << name << " (threads=4) graph=" << gi;
      }
    }
  }
}

/// Compressed representations must be invisible to results: every
/// registered algorithm, run over a graph whose attached index was
/// budget-squeezed into a mix of dense/sparse/dropped rows, must deliver
/// the exact brute-force solution set, sequentially and in parallel.
TEST(AccelAgreement, EveryAlgorithmMatchesBruteForceUnderMemoryBudget) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (const RandomGraphCase& c :
       {RandomGraphCase{7, 7, 0.55, 81}, RandomGraphCase{9, 6, 0.35, 82}}) {
    const BipartiteGraph plain = MakeRandomGraph(c);
    // Pick a budget that forces a genuine mix: about half the all-dense
    // pool. The representation check below asserts the mix happened, so
    // this test cannot silently degrade into the all-dense case.
    BipartiteGraph probe = plain;
    probe.BuildAdjacencyIndex(1);
    const size_t dense_bytes = probe.adjacency_index()->MemoryBytes();
    ASSERT_GT(dense_bytes, 0u);
    const size_t budget = dense_bytes / 2;
    BipartiteGraph squeezed = plain;
    squeezed.BuildAdjacencyIndex(1, budget);
    const AdjacencyIndex::RepresentationStats& rep =
        squeezed.adjacency_index()->representation_stats();
    ASSERT_GT(rep.sparse_rows + rep.dropped_rows, 0u);
    ASSERT_LE(squeezed.adjacency_index()->MemoryBytes(), budget);

    const std::vector<Biplex> all = BruteForceMaximalBiplexes(plain, 1);
    for (const std::string& name : registry.Names()) {
      EnumerateRequest req;
      req.algorithm = name;
      req.k = KPair::Uniform(1);
      AlgorithmInfo info = *registry.Find(name);
      if (info.requires_theta) {
        req.theta_left = 2;
        req.theta_right = 2;
      }
      const std::vector<Biplex> expect =
          FilterBySize(all, req.theta_left, req.theta_right);
      EnumerateStats stats;
      std::vector<Biplex> got = CollectRequest(squeezed, req, &stats);
      ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
      ASSERT_EQ(got, expect)
          << name << " budget=" << budget << "\nexpect:\n"
          << ToString(expect) << "got:\n"
          << ToString(got);

      EnumerateRequest par_req = req;
      par_req.threads = 4;
      EnumerateStats par_stats;
      std::vector<Biplex> par = CollectRequest(squeezed, par_req, &par_stats);
      ASSERT_TRUE(par_stats.ok()) << name << ": " << par_stats.error;
      ASSERT_EQ(par, expect) << name << " (threads=4) budget=" << budget;
    }
  }
}

// The candidate generator must apply its 2-hop connection floor (and
// prune candidates) when theta_other > k, and keep every non-member when
// no floor is sound. The candidate counts are pinned: a floor that
// silently disengages falls back to the membership-only count and fails
// here.
TEST(TwoHopCandidates, EngagesOnlyUnderTheGate) {
  BipartiteGraph g = MakeRandomGraph({10, 10, 0.5, 37});
  const std::vector<Biplex> all = BruteForceMaximalBiplexes(g, 1);

  TraversalOptions gated = MakeITraversalOptions(1);
  gated.theta_left = gated.theta_right = 3;
  TraversalStats with;
  EXPECT_EQ(CollectWith(g, gated, &with), FilterBySize(all, 3, 3));
  // 687 candidates under the floor; every non-member of the side per
  // frame of the same traversal would be 1,562.
  EXPECT_EQ(with.candidates_generated, 687u);
  EXPECT_LT(with.candidates_generated, 1562u);

  // Without thetas there is no floor: the lists hold every non-member of
  // the side per frame, 2,409 in all.
  TraversalOptions ungated = MakeITraversalOptions(1);
  TraversalStats without;
  EXPECT_EQ(CollectWith(g, ungated, &without), all);
  EXPECT_EQ(without.candidates_generated, 2409u);
}

TEST(TwoHopCandidates, RightAnchoredTraversalAgreesToo) {
  BipartiteGraph g = MakeRandomGraph({8, 11, 0.45, 38});
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.anchored_side = Side::kRight;
  opts.theta_left = opts.theta_right = 2;
  TraversalStats stats;
  EXPECT_EQ(CollectWith(g, opts, &stats),
            FilterBySize(BruteForceMaximalBiplexes(g, 1), 2, 2));
  // 1,172 candidates under the floor; every non-member per frame would be
  // 1,303.
  EXPECT_EQ(stats.candidates_generated, 1172u);
}

// ------------------------------------------------------------ workspace --

TEST(EnumAlmostSatWorkspace, ReuseMatchesFreshAllocation) {
  BipartiteGraph g = MakeRandomGraph({8, 8, 0.5, 39});
  // A 1-biplex to expand: take the first solution of the engine.
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.max_results = 4;
  std::vector<Biplex> sols = CollectRequest(g, req);
  ASSERT_FALSE(sols.empty());

  EnumAlmostSatWorkspace ws;
  for (const Biplex& h : sols) {
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (sorted::Contains(h.left, v)) continue;
      std::vector<Biplex> fresh, reused;
      EnumAlmostSatOptions fresh_opts;
      EnumAlmostSat(g, h, Side::kLeft, v, 1, fresh_opts,
                    [&](const Biplex& b) {
                      fresh.push_back(b);
                      return true;
                    });
      EnumAlmostSatOptions reuse_opts;
      reuse_opts.workspace = &ws;  // carries state across iterations
      EnumAlmostSat(g, h, Side::kLeft, v, 1, reuse_opts,
                    [&](const Biplex& b) {
                      reused.push_back(b);
                      return true;
                    });
      ASSERT_EQ(reused, fresh) << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace kbiplex
