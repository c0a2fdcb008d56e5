// Tests of the asymmetric-budget generalization (different k per side),
// the adaptation the paper's Section 2 remark calls for. Every engine
// configuration must agree with the exhaustive oracle under (k_l, k_r).
#include <algorithm>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/btraversal.h"
#include "core/enum_almost_sat.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::CollectLarge;
using testing_support::CollectWith;
using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

TEST(KPairBasics, UniformAndForSide) {
  KPair k = KPair::Uniform(2);
  EXPECT_EQ(k.left, 2);
  EXPECT_EQ(k.right, 2);
  EXPECT_TRUE(k.IsUniform());
  KPair a{1, 3};
  EXPECT_FALSE(a.IsUniform());
  EXPECT_EQ(a.ForSide(Side::kLeft), 1);
  EXPECT_EQ(a.ForSide(Side::kRight), 3);
}

TEST(AsymmetricPredicates, BudgetsApplyPerSide) {
  // 2x2 with one edge missing on each left vertex's view.
  auto g = MakeGraph(2, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}});
  // Left 0 misses {2}; left 1 misses {0}; right 0 misses {1}, right 1
  // misses nothing, right 2 misses {0}.
  Biplex whole{{0, 1}, {0, 1, 2}};
  EXPECT_TRUE(IsKBiplex(g, whole, KPair{1, 1}));
  EXPECT_TRUE(IsKBiplex(g, whole, KPair{1, 2}));
  // With zero tolerance on the left the two misses break it.
  EXPECT_FALSE(IsKBiplex(g, whole, KPair{0, 1}));
  // With zero tolerance on the right, right 0 and 2 each miss one.
  EXPECT_FALSE(IsKBiplex(g, whole, KPair{1, 0}));
}

TEST(AsymmetricPredicates, BruteForceDiffersAcrossBudgets) {
  auto g = MakeRandomGraph({5, 5, 0.5, 42});
  auto sym = BruteForceMaximalBiplexes(g, KPair{1, 1});
  auto asym = BruteForceMaximalBiplexes(g, KPair{1, 3});
  EXPECT_NE(sym, asym);  // looser right budget admits bigger solutions
  for (const Biplex& b : asym) {
    EXPECT_TRUE(IsMaximalKBiplex(g, b, KPair{1, 3})) << ToString(b);
  }
}

class AsymmetricSweep
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(AsymmetricSweep, AllEngineConfigsMatchOracle) {
  const KPair k{std::get<0>(GetParam()), std::get<1>(GetParam())};
  const uint64_t seed = std::get<2>(GetParam());
  auto g = MakeRandomGraph({6, 5, 0.5, seed * 19 + 5});
  const auto expect = BruteForceMaximalBiplexes(g, k);
  for (TraversalOptions opts :
       {MakeBTraversalOptions(1), MakeITraversalLeftAnchoredOnlyOptions(1),
        MakeITraversalNoExclusionOptions(1), MakeITraversalOptions(1)}) {
    opts.k = k;
    auto got = CollectWith(g, opts);
    ASSERT_EQ(got, expect)
        << TraversalConfigName(opts) << " k=(" << k.left << "," << k.right
        << ") seed=" << seed << "\ngot:\n"
        << ToString(got) << "want:\n"
        << ToString(expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsymmetricSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2, 3)));

TEST(AsymmetricSweepRightAnchor, MatchesOracle) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    auto g = MakeRandomGraph({5, 6, 0.5, seed});
    const KPair k{2, 1};
    auto expect = BruteForceMaximalBiplexes(g, k);
    TraversalOptions opts = MakeITraversalOptions(1);
    opts.k = k;
    opts.anchored_side = Side::kRight;
    ASSERT_EQ(CollectWith(g, opts), expect) << "seed=" << seed;
  }
}

// EnumAlmostSat under asymmetric budgets against the local oracle.
TEST(AsymmetricEnumAlmostSat, MatchesLocalOracle) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto g = MakeRandomGraph({5, 5, 0.5, seed + 300});
    const KPair k{1, 2};
    for (const Biplex& h : BruteForceMaximalBiplexes(g, k)) {
      for (VertexId v = 0; v < g.NumLeft(); ++v) {
        if (sorted::Contains(h.left, v)) continue;
        // Oracle: maximal (k_l, k_r)-biplexes of the induced
        // almost-satisfying subgraph containing v.
        Biplex almost = h;
        sorted::Insert(&almost.left, v);
        InducedSubgraph sub = Induce(g, almost.left, almost.right);
        const VertexId v_compact = static_cast<VertexId>(
            std::lower_bound(sub.left_map.begin(), sub.left_map.end(), v) -
            sub.left_map.begin());
        std::vector<Biplex> expect;
        for (const Biplex& loc :
             BruteForceMaximalBiplexes(sub.graph, k)) {
          if (!sorted::Contains(loc.left, v_compact)) continue;
          Biplex mapped;
          for (VertexId x : loc.left) {
            mapped.left.push_back(sub.left_map[x]);
          }
          for (VertexId x : loc.right) {
            mapped.right.push_back(sub.right_map[x]);
          }
          expect.push_back(std::move(mapped));
        }
        std::sort(expect.begin(), expect.end());

        std::vector<Biplex> got;
        EnumAlmostSat(g, h, Side::kLeft, v, k, EnumAlmostSatOptions{},
                      [&](const Biplex& b) {
                        got.push_back(b);
                        return true;
                      });
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expect) << "seed=" << seed << " v=" << v
                               << " H=" << ToString(h);
      }
    }
  }
}

TEST(AsymmetricLargeMbp, MatchesFilteredOracle) {
  for (uint64_t seed : {11u, 12u}) {
    auto g = MakeRandomGraph({6, 6, 0.55, seed});
    const KPair k{2, 1};
    auto got = CollectLarge(g, k, 2, 2);
    auto expect =
        FilterBySize(BruteForceMaximalBiplexes(g, k), 2, 2);
    ASSERT_EQ(got, expect) << "seed=" << seed;
  }
}

TEST(AsymmetricMonotonicity, LargerBudgetsNeverShrinkSolutionSizes) {
  // Every (1,1)-maximal biplex is contained in some (2,1)-biplex, so the
  // largest solution can only grow when a budget grows.
  auto g = MakeRandomGraph({6, 6, 0.5, 77});
  auto small = BruteForceMaximalBiplexes(g, KPair{1, 1});
  auto big = BruteForceMaximalBiplexes(g, KPair{2, 1});
  auto max_size = [](const std::vector<Biplex>& v) {
    size_t best = 0;
    for (const Biplex& b : v) best = std::max(best, b.Size());
    return best;
  };
  EXPECT_GE(max_size(big), max_size(small));
}

}  // namespace
}  // namespace kbiplex
