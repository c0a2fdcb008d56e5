#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/btraversal.h"
#include "core/itraversal.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::CollectWith;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

// ----------------------------------------------------- initial solutions --

TEST(InitialSolution, LeftAnchoredContainsFullRightSide) {
  auto g = RunningExampleGraph();
  TraversalEngine engine(g, MakeITraversalOptions(1));
  Biplex h0 = engine.InitialSolution();
  EXPECT_EQ(h0.right.size(), g.NumRight());
  EXPECT_EQ(h0.left, (std::vector<VertexId>{4}));  // only v4 fits
  EXPECT_TRUE(IsMaximalKBiplex(g, h0, 1));
}

TEST(InitialSolution, RightAnchoredContainsFullLeftSide) {
  auto g = RunningExampleGraph();
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.anchored_side = Side::kRight;
  TraversalEngine engine(g, opts);
  Biplex h0 = engine.InitialSolution();
  EXPECT_EQ(h0.left.size(), g.NumLeft());
  EXPECT_TRUE(IsKBiplex(g, h0, 1));
}

TEST(InitialSolution, BTraversalIsMaximal) {
  auto g = RunningExampleGraph();
  TraversalEngine engine(g, MakeBTraversalOptions(1));
  EXPECT_TRUE(IsMaximalKBiplex(g, engine.InitialSolution(), 1));
}

// --------------------------------------------------------- config naming --

TEST(ConfigNames, AllFour) {
  EXPECT_EQ(TraversalConfigName(MakeBTraversalOptions(1)), "bTraversal");
  EXPECT_EQ(TraversalConfigName(MakeITraversalOptions(1)), "iTraversal");
  EXPECT_EQ(TraversalConfigName(MakeITraversalNoExclusionOptions(1)),
            "iTraversal-ES");
  EXPECT_EQ(TraversalConfigName(MakeITraversalLeftAnchoredOnlyOptions(1)),
            "iTraversal-ES-RS");
}

// -------------------------------------------------- correctness sweeps ----

struct SweepCase {
  size_t nl, nr;
  double p;
  int k;
  uint64_t seed;
};

std::vector<TraversalOptions> AllConfigs(int k) {
  return {MakeBTraversalOptions(k), MakeITraversalLeftAnchoredOnlyOptions(k),
          MakeITraversalNoExclusionOptions(k), MakeITraversalOptions(k)};
}

class TraversalSweep
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(TraversalSweep, AllConfigsMatchBruteForce) {
  const int k = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  auto g = MakeRandomGraph({6, 5, p, seed * 7 + 3});
  const auto expect = BruteForceMaximalBiplexes(g, k);
  for (const TraversalOptions& opts : AllConfigs(k)) {
    TraversalStats stats;
    auto got = CollectWith(g, opts, &stats);
    ASSERT_EQ(got, expect)
        << TraversalConfigName(opts) << " k=" << k << " p=" << p
        << " seed=" << seed << "\ngot:\n"
        << ToString(got) << "want:\n"
        << ToString(expect);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.solutions_found, expect.size());
    EXPECT_EQ(stats.solutions_emitted, expect.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraversalSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.2, 0.4, 0.6, 0.8),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7)));

// Larger sparse instances against iTraversal vs bTraversal agreement
// (brute force is too slow there, but the two engines are independent
// implementations of the same set).
class EngineAgreementSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreementSweep, ITraversalMatchesBTraversal) {
  const uint64_t seed = GetParam();
  Rng rng(seed + 500);
  auto g = ErdosRenyiBipartite(12, 12, 40 + seed % 30, &rng);
  for (int k = 1; k <= 2; ++k) {
    auto a = CollectWith(g, MakeBTraversalOptions(k));
    auto b = CollectWith(g, MakeITraversalOptions(k));
    ASSERT_EQ(a, b) << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ----------------------------------------------- solutions are solutions --

TEST(Traversal, EverySolutionIsMaximalAndUnique) {
  Rng rng(42);
  auto g = ErdosRenyiBipartite(10, 10, 35, &rng);
  std::set<std::string> seen;
  TraversalEngine engine(g, MakeITraversalOptions(1));
  engine.Run([&](const Biplex& b) {
    EXPECT_TRUE(IsMaximalKBiplex(g, b, 1)) << ToString(b);
    EXPECT_TRUE(seen.insert(EncodeBiplexKey(b)).second)
        << "duplicate " << ToString(b);
    return true;
  });
  EXPECT_FALSE(seen.empty());
}

// ------------------------------------------------- sparsification order ---

TEST(Traversal, SparsificationShrinksLinkCounts) {
  // links(G) >= links(G_L) >= links(G_R) >= links(G_E) (Section 3 / Fig 11).
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto g = MakeRandomGraph({6, 6, 0.5, seed});
    uint64_t prev = ~0ull;
    for (const TraversalOptions& opts : AllConfigs(1)) {
      TraversalStats stats;
      CollectWith(g, opts, &stats);
      EXPECT_LE(stats.links, prev)
          << TraversalConfigName(opts) << " seed=" << seed;
      prev = stats.links;
    }
  }
}

TEST(Traversal, RunningExampleLinkCountsShrink) {
  auto g = RunningExampleGraph();
  std::vector<uint64_t> links;
  std::vector<uint64_t> solutions;
  for (const TraversalOptions& opts : AllConfigs(1)) {
    TraversalStats stats;
    CollectWith(g, opts, &stats);
    links.push_back(stats.links);
    solutions.push_back(stats.solutions_found);
  }
  // All four configurations find the same number of solutions...
  for (uint64_t s : solutions) EXPECT_EQ(s, solutions[0]);
  // ...but strictly fewer links as the techniques stack up (the paper's
  // running example shrinks 76 -> 41 -> 21 -> 13 on its Figure 1 graph).
  EXPECT_GT(links[0], links[1]);
  EXPECT_GT(links[1], links[2]);
  EXPECT_GE(links[2], links[3]);
}

// -------------------------------------------------------------- budgets ---

TEST(Traversal, MaxResultsStopsEarly) {
  Rng rng(77);
  auto g = ErdosRenyiBipartite(12, 12, 50, &rng);
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.max_results = 3;
  TraversalStats stats;
  auto got = CollectWith(g, opts, &stats);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_FALSE(stats.completed);
}

TEST(Traversal, CallbackStop) {
  Rng rng(78);
  auto g = ErdosRenyiBipartite(10, 10, 40, &rng);
  size_t count = 0;
  TraversalStats stats =
      TraversalEngine(g, MakeITraversalOptions(1)).Run([&](const Biplex&) {
        return ++count < 2;
      });
  EXPECT_EQ(count, 2u);
  EXPECT_FALSE(stats.completed);
}

TEST(Traversal, MaxLinksCapsWork) {
  Rng rng(79);
  auto g = ErdosRenyiBipartite(10, 10, 40, &rng);
  TraversalOptions opts = MakeBTraversalOptions(1);
  opts.max_links = 5;
  TraversalStats stats;
  CollectWith(g, opts, &stats);
  EXPECT_FALSE(stats.completed);
  EXPECT_LE(stats.links, 5u);
}

TEST(Traversal, TimeBudgetHonored) {
  Rng rng(80);
  auto g = ErdosRenyiBipartite(30, 30, 300, &rng);
  TraversalOptions opts = MakeBTraversalOptions(2);
  opts.time_budget_seconds = 0.02;
  TraversalStats stats;
  CollectWith(g, opts, &stats);
  EXPECT_FALSE(stats.completed);
  EXPECT_LT(stats.seconds, 5.0);
}

// ------------------------------------------------------- output parity ----

TEST(Traversal, AlternatingOutputMatchesEagerOutput) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto g = MakeRandomGraph({6, 6, 0.5, seed});
    TraversalOptions eager = MakeITraversalOptions(1);
    eager.polynomial_delay_output = false;
    auto a = CollectWith(g, MakeITraversalOptions(1));
    auto b = CollectWith(g, eager);
    ASSERT_EQ(a, b) << "seed=" << seed;
  }
}

// ----------------------------------------------------- anchor symmetry ----

TEST(Traversal, RightAnchoredEnumeratesSameSet) {
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    auto g = MakeRandomGraph({6, 6, 0.5, seed});
    auto expect = BruteForceMaximalBiplexes(g, 1);
    TraversalOptions opts = MakeITraversalOptions(1);
    opts.anchored_side = Side::kRight;
    auto got = CollectWith(g, opts);
    ASSERT_EQ(got, expect) << "seed=" << seed;
  }
}

// ------------------------------------------------------ candidate order ---

// The first 25 solutions a run emits, in order, then every counter of the
// complete run.
std::string EmissionTrace(const BipartiteGraph& g,
                          const TraversalOptions& opts) {
  std::vector<Biplex> first;
  TraversalStats s = TraversalEngine(g, opts).Run([&](const Biplex& b) {
    if (first.size() < 25) first.push_back(b);
    return true;
  });
  std::ostringstream os;
  os << ToString(first);
  auto line = [&os](const char* label, std::vector<uint64_t> values) {
    os << label;
    for (uint64_t v : values) os << " " << v;
    os << "\n";
  };
  const EnumAlmostSatStats& l = s.local_stats;
  line("completed", {s.completed});
  line("solutions", {s.solutions_found, s.solutions_emitted});
  line("links", {s.links, s.dedup_hits});
  line("pruned", {s.links_pruned_right_shrinking, s.links_pruned_exclusion});
  line("steps", {s.almost_sat_graphs, s.local_solutions, s.max_stack_depth});
  line("candidates", {s.candidates_generated, s.candidates_pruned});
  line("subsets", {l.b_subsets, l.a_subsets});
  line("local", {l.local_solutions, l.adjacency_tests});
  return os.str();
}

// Pins the DFS emission order and every counter of the iTraversal
// configurations whose candidate lists have no connection floor
// (exclusion on, theta_other <= k): anchored left, anchored right, and
// k = 1 with theta = 1, where the Section 5 prunes run with a floor of 0.
// A generator that visits other candidates, or the same ones in another
// order, changes the trace.
TEST(Traversal, FloorlessCandidateOrderIsPinned) {
  const BipartiteGraph g = MakeRandomGraph({9, 9, 0.5, 52});
  EXPECT_EQ(EmissionTrace(g, MakeITraversalOptions(1)),
            "{ | 0 1 2 3 4 5 6 7 8 }\n"
            "{ 0 3 4 | 0 1 2 6 }\n"
            "{ 3 4 6 7 | 0 1 }\n"
            "{ 0 3 4 6 | 0 1 6 }\n"
            "{ 0 3 6 7 | 1 2 6 }\n"
            "{ 3 6 7 | 0 1 2 }\n"
            "{ 0 3 6 | 0 1 2 6 }\n"
            "{ 0 3 4 7 | 1 2 6 }\n"
            "{ 3 4 7 | 0 1 2 }\n"
            "{ 0 3 4 | 0 2 5 6 }\n"
            "{ 0 3 4 5 7 8 | 5 }\n"
            "{ 0 3 4 5 8 | 5 6 }\n"
            "{ 0 3 4 5 7 | 5 6 }\n"
            "{ 0 3 7 8 | 2 5 }\n"
            "{ 0 3 4 7 | 2 5 6 }\n"
            "{ 3 4 7 | 0 2 5 }\n"
            "{ 0 4 6 | 0 1 5 6 }\n"
            "{ 4 6 7 | 0 1 5 }\n"
            "{ 0 4 | 0 1 2 5 6 }\n"
            "{ 0 1 4 5 | 1 3 5 6 }\n"
            "{ 0 1 2 3 4 5 6 | 6 }\n"
            "{ 0 1 2 3 4 5 6 7 8 | }\n"
            "{ 0 1 3 4 5 6 8 | 6 }\n"
            "{ 0 1 3 4 5 6 7 | 6 }\n"
            "{ 0 1 2 3 4 6 | 1 6 }\n"
            "completed 1\n"
            "solutions 269 269\n"
            "links 446 178\n"
            "pruned 1014 412\n"
            "steps 673 1872 8\n"
            "candidates 1505 832\n"
            "subsets 1872 2785\n"
            "local 1872 6976\n");

  TraversalOptions right = MakeITraversalOptions(1);
  right.anchored_side = Side::kRight;
  EXPECT_EQ(EmissionTrace(g, right),
            "{ 0 1 2 3 4 5 6 7 8 | }\n"
            "{ 0 3 4 | 0 1 2 6 }\n"
            "{ | 0 1 2 3 4 5 6 7 8 }\n"
            "{ 4 | 0 1 3 4 5 6 8 }\n"
            "{ 4 | 0 1 3 5 6 7 8 }\n"
            "{ 4 | 0 1 2 3 5 6 8 }\n"
            "{ 3 4 | 0 2 6 8 }\n"
            "{ 3 4 | 0 2 3 6 }\n"
            "{ 0 4 | 0 1 2 5 6 }\n"
            "{ 0 3 4 | 0 2 5 6 }\n"
            "{ 0 3 6 | 0 1 2 6 }\n"
            "{ 6 | 0 1 2 3 4 6 }\n"
            "{ 3 6 | 0 1 2 4 6 }\n"
            "{ 3 | 0 2 4 6 7 }\n"
            "{ 3 | 0 2 4 6 8 }\n"
            "{ 3 | 0 2 4 5 6 }\n"
            "{ 3 6 | 0 2 3 4 6 }\n"
            "{ 0 4 6 | 0 1 5 6 }\n"
            "{ 0 3 4 6 | 0 1 6 }\n"
            "{ 1 4 6 | 0 1 3 4 6 }\n"
            "{ 4 6 | 0 1 3 4 6 8 }\n"
            "{ 4 6 | 0 1 3 4 5 6 }\n"
            "{ 1 | 1 3 4 6 7 8 }\n"
            "{ 1 6 | 0 1 3 4 6 7 }\n"
            "{ 1 4 | 1 3 6 7 8 }\n"
            "completed 1\n"
            "solutions 269 269\n"
            "links 491 223\n"
            "pruned 1065 348\n"
            "steps 682 1904 8\n"
            "candidates 1472 790\n"
            "subsets 1904 2858\n"
            "local 1904 6890\n");

  TraversalOptions theta1 = MakeITraversalOptions(1);
  theta1.theta_left = theta1.theta_right = 1;
  EXPECT_EQ(EmissionTrace(g, theta1),
            "{ 0 3 4 | 0 1 2 6 }\n"
            "{ 3 4 6 7 | 0 1 }\n"
            "{ 0 3 4 6 | 0 1 6 }\n"
            "{ 0 3 6 7 | 1 2 6 }\n"
            "{ 3 6 7 | 0 1 2 }\n"
            "{ 0 3 6 | 0 1 2 6 }\n"
            "{ 0 3 4 7 | 1 2 6 }\n"
            "{ 3 4 7 | 0 1 2 }\n"
            "{ 0 3 4 | 0 2 5 6 }\n"
            "{ 0 3 4 5 7 8 | 5 }\n"
            "{ 0 3 4 5 8 | 5 6 }\n"
            "{ 0 3 4 5 7 | 5 6 }\n"
            "{ 0 3 7 8 | 2 5 }\n"
            "{ 0 3 4 7 | 2 5 6 }\n"
            "{ 3 4 7 | 0 2 5 }\n"
            "{ 0 4 6 | 0 1 5 6 }\n"
            "{ 4 6 7 | 0 1 5 }\n"
            "{ 0 4 | 0 1 2 5 6 }\n"
            "{ 0 1 4 5 | 1 3 5 6 }\n"
            "{ 0 1 2 3 4 5 6 | 6 }\n"
            "{ 0 1 3 4 5 6 8 | 6 }\n"
            "{ 0 1 3 4 5 6 7 | 6 }\n"
            "{ 0 1 2 3 4 6 | 1 6 }\n"
            "{ 0 1 2 4 6 7 8 | 1 }\n"
            "{ 0 1 2 3 4 6 7 | 1 }\n"
            "completed 1\n"
            "solutions 268 267\n"
            "links 444 177\n"
            "pruned 989 383\n"
            "steps 673 1816 8\n"
            "candidates 1505 832\n"
            "subsets 1872 2729\n"
            "local 1816 6976\n");
}

// ------------------------------------------------- inflation local impl ---

TEST(Traversal, InflationLocalEnumMatchesDirect) {
  for (uint64_t seed : {41u, 42u}) {
    auto g = MakeRandomGraph({6, 5, 0.5, seed});
    TraversalOptions direct = MakeITraversalOptions(1);
    TraversalOptions infl = MakeITraversalOptions(1);
    infl.local_impl = LocalEnumImpl::kInflation;
    ASSERT_EQ(CollectWith(g, direct), CollectWith(g, infl))
        << "seed=" << seed;
  }
}

// ----------------------------------------------------------- edge cases ---

TEST(Traversal, EmptyGraph) {
  BipartiteGraph g;
  auto got = CollectWith(g, MakeITraversalOptions(1));
  // The only maximal biplex of the empty graph is the empty subgraph.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].left.empty());
  EXPECT_TRUE(got[0].right.empty());
}

TEST(Traversal, NoEdges) {
  auto g = BipartiteGraph::FromEdges(3, 3, {});
  auto expect = BruteForceMaximalBiplexes(g, 1);
  for (const TraversalOptions& opts : AllConfigs(1)) {
    ASSERT_EQ(CollectWith(g, opts), expect)
        << TraversalConfigName(opts);
  }
}

TEST(Traversal, CompleteGraph) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < 4; ++l) {
    for (VertexId r = 0; r < 4; ++r) edges.emplace_back(l, r);
  }
  auto g = BipartiteGraph::FromEdges(4, 4, edges);
  auto expect = BruteForceMaximalBiplexes(g, 1);
  EXPECT_EQ(expect.size(), 1u);  // the whole graph
  for (const TraversalOptions& opts : AllConfigs(1)) {
    ASSERT_EQ(CollectWith(g, opts), expect);
  }
}

TEST(Traversal, StarGraph) {
  // One left hub connected to every right vertex.
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId r = 0; r < 5; ++r) edges.emplace_back(0, r);
  auto g = BipartiteGraph::FromEdges(3, 5, edges);
  auto expect = BruteForceMaximalBiplexes(g, 1);
  for (const TraversalOptions& opts : AllConfigs(1)) {
    ASSERT_EQ(CollectWith(g, opts), expect);
  }
}

TEST(Traversal, SideWithSingleVertex) {
  auto g = BipartiteGraph::FromEdges(1, 4, {{0, 0}, {0, 2}});
  for (int k = 1; k <= 2; ++k) {
    auto expect = BruteForceMaximalBiplexes(g, k);
    for (const TraversalOptions& opts : AllConfigs(k)) {
      ASSERT_EQ(CollectWith(g, opts), expect) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace kbiplex
