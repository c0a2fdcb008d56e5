#include <algorithm>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/btraversal.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::CollectLarge;
using testing_support::CollectWith;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

class LargeMbpSweep : public ::testing::TestWithParam<
                          std::tuple<int, size_t, size_t, uint64_t>> {};

TEST_P(LargeMbpSweep, MatchesFilteredBruteForce) {
  const int k = std::get<0>(GetParam());
  const size_t theta_l = std::get<1>(GetParam());
  const size_t theta_r = std::get<2>(GetParam());
  const uint64_t seed = std::get<3>(GetParam());
  auto g = MakeRandomGraph({6, 6, 0.55, seed * 5 + 1});
  const auto expect =
      FilterBySize(BruteForceMaximalBiplexes(g, k), theta_l, theta_r);
  // Unpeeled: the traversal engine's Section 5 prunes on the whole graph.
  TraversalOptions opts = MakeITraversalOptions(k);
  opts.theta_left = theta_l;
  opts.theta_right = theta_r;
  // Peeled: the large-mbp backend on the plan's (theta-k)-core.
  for (const auto& got : {CollectWith(g, opts),
                          CollectLarge(g, KPair::Uniform(k), theta_l,
                                       theta_r)}) {
    ASSERT_EQ(got, expect)
        << "k=" << k << " theta=(" << theta_l << "," << theta_r
        << ") seed=" << seed << "\ngot:\n"
        << ToString(got) << "want:\n"
        << ToString(expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LargeMbpSweep,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2, 3)));

TEST(LargeMbp, CoreReductionShrinksGraph) {
  Rng rng(9);
  auto base = ErdosRenyiBipartite(40, 40, 60, &rng);
  auto g = PlantDenseBlock(base, 6, 6, 1.0, &rng);
  EnumerateStats stats;
  auto got = CollectLarge(g, KPair::Uniform(1), 5, 5, &stats);
  // The dense block survives; most of the sparse base is peeled away.
  ASSERT_TRUE(stats.large_mbp.has_value()) << stats.error;
  EXPECT_LT(stats.large_mbp->core_left, g.NumLeft());
  EXPECT_LT(stats.large_mbp->core_right, g.NumRight());
  // The planted 6x6 complete block is a large MBP (possibly extended).
  ASSERT_FALSE(got.empty());
  bool contains_block = false;
  for (const Biplex& b : got) {
    bool all = true;
    for (VertexId v = 40; v < 46 && all; ++v) {
      all = sorted::Contains(b.left, v);
    }
    for (VertexId u = 40; u < 46 && all; ++u) {
      all = sorted::Contains(b.right, u);
    }
    if (all) contains_block = true;
  }
  EXPECT_TRUE(contains_block);
}

TEST(LargeMbp, EmptyResultWhenThresholdTooHigh) {
  Rng rng(10);
  auto g = ErdosRenyiBipartite(15, 15, 30, &rng);
  EXPECT_TRUE(CollectLarge(g, KPair::Uniform(1), 10, 10).empty());
}

TEST(LargeMbp, SolutionsKeepOriginalIds) {
  Rng rng(11);
  auto base = ErdosRenyiBipartite(20, 20, 20, &rng);
  auto g = PlantDenseBlock(base, 5, 5, 1.0, &rng);
  for (const Biplex& b : CollectLarge(g, KPair::Uniform(1), 4, 4)) {
    EXPECT_TRUE(IsMaximalKBiplex(g, b, 1)) << ToString(b);
    EXPECT_GE(b.left.size(), 4u);
    EXPECT_GE(b.right.size(), 4u);
  }
}

TEST(LargeMbp, PruningDoesLessWorkThanFiltering) {
  Rng rng(12);
  auto base = ErdosRenyiBipartite(20, 20, 60, &rng);
  auto g = PlantDenseBlock(base, 5, 5, 1.0, &rng);
  // Pruned run on the whole graph, which isolates the Section 5 prunes
  // from the plan's core peel.
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.theta_left = 4;
  opts.theta_right = 4;
  TraversalStats pruned;
  auto got = CollectWith(g, opts, &pruned);
  // Unpruned full enumeration with post-filtering.
  TraversalOptions full = MakeITraversalOptions(1);
  TraversalStats full_stats;
  auto all = CollectWith(g, full, &full_stats);
  ASSERT_EQ(got, FilterBySize(all, 4, 4));
  EXPECT_LE(pruned.links, full_stats.links);
  EXPECT_LE(pruned.local_solutions, full_stats.local_solutions);
}

TEST(LargeMbp, ThetaOneEqualsFullEnumerationNonEmptySides) {
  auto g = MakeRandomGraph({6, 6, 0.5, 77});
  auto got = CollectLarge(g, KPair::Uniform(1), 1, 1);
  auto expect = FilterBySize(BruteForceMaximalBiplexes(g, 1), 1, 1);
  ASSERT_EQ(got, expect);
}

TEST(LargeMbp, HonoursMaxLinks) {
  // The link budget is a request field every traversal backend applies:
  // large-mbp stops at it exactly like itraversal does.
  LoadResult loaded = LoadEdgeList(KBIPLEX_SOURCE_DIR "/ci/toy_graph.txt");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  for (const char* name : {"itraversal", "large-mbp"}) {
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = 2;
    req.theta_right = 2;
    req.max_links = 5;
    EnumerateStats stats;
    testing_support::CollectRequest(*loaded.graph, req, &stats);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
    EXPECT_FALSE(stats.completed) << name;
    EXPECT_LE(stats.work_units, 5u) << name;
  }
}

}  // namespace
}  // namespace kbiplex
