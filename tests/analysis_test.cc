#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/biclique.h"
#include "analysis/fraud.h"
#include "analysis/metrics.h"
#include "analysis/quasi_biclique.h"
#include "core/brute_force.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;

// ----------------------------------------------------------------- metrics --

TEST(Metrics, PerfectDetection) {
  std::vector<bool> truth = {true, false, true, false};
  BinaryMetrics m = ComputeMetrics(truth, truth);
  EXPECT_TRUE(m.defined);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Metrics, NothingFlaggedIsUndefined) {
  BinaryMetrics m =
      ComputeMetrics({false, false}, {true, false});
  EXPECT_FALSE(m.defined);  // the paper's "ND"
}

TEST(Metrics, MixedCounts) {
  // flagged: {0,1}; truth: {1,2}.
  BinaryMetrics m = ComputeMetrics({true, true, false},
                                   {false, true, true});
  EXPECT_EQ(m.tp, 1u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.f1, 0.5);
}

TEST(Metrics, JointCombinesFamilies) {
  BinaryMetrics m = ComputeJointMetrics({true}, {true}, {true, false},
                                        {false, false});
  EXPECT_EQ(m.tp, 1u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.fn, 0u);
}

// ---------------------------------------------------------------- biclique --

TEST(Biclique, Predicate) {
  auto g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_TRUE(IsBiclique(g, Biplex{{0}, {0, 1}}));
  EXPECT_FALSE(IsBiclique(g, Biplex{{0, 1}, {0, 1}}));
  EXPECT_TRUE(IsBiclique(g, Biplex{{0, 1}, {0}}));
}

TEST(Biclique, EnumerationMatchesZeroBiplexBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto g = MakeRandomGraph({5, 5, 0.5, seed});
    auto expect = BruteForceMaximalBiplexes(g, 0);
    std::vector<Biplex> got;
    EnumerateMaximalBicliques(g, BicliqueEnumOptions{},
                              [&](const Biplex& b) {
                                got.push_back(b);
                                return true;
                              });
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect) << "seed=" << seed;
  }
}

TEST(Biclique, SizeThresholdsFilter) {
  auto g = MakeRandomGraph({6, 6, 0.6, 5});
  BicliqueEnumOptions opts;
  opts.theta_left = 2;
  opts.theta_right = 2;
  std::vector<Biplex> got;
  EnumerateMaximalBicliques(g, opts, [&](const Biplex& b) {
    got.push_back(b);
    return true;
  });
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got, FilterBySize(BruteForceMaximalBiplexes(g, 0), 2, 2));
}

// ----------------------------------------------------------------- δ-QB ----

TEST(QuasiBiclique, PredicateBoundaries) {
  // Complete 3x3 minus one edge.
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < 3; ++l) {
    for (VertexId r = 0; r < 3; ++r) {
      if (!(l == 0 && r == 0)) edges.emplace_back(l, r);
    }
  }
  auto g = BipartiteGraph::FromEdges(3, 3, edges);
  Biplex whole{{0, 1, 2}, {0, 1, 2}};
  EXPECT_FALSE(IsDeltaQuasiBiclique(g, whole, 0.0));
  // One miss out of three columns = 1/3.
  EXPECT_FALSE(IsDeltaQuasiBiclique(g, whole, 0.2));
  EXPECT_TRUE(IsDeltaQuasiBiclique(g, whole, 0.34));
}

TEST(QuasiBiclique, FindsPlantedBlock) {
  Rng rng(8);
  auto base = ErdosRenyiBipartite(40, 40, 50, &rng);
  auto g = PlantDenseBlock(base, 8, 8, 0.95, &rng);
  QuasiBicliqueOptions opts;
  opts.delta = 0.3;
  opts.theta_left = 5;
  opts.theta_right = 5;
  auto blocks = FindQuasiBicliqueBlocks(g, opts);
  ASSERT_FALSE(blocks.empty());
  // The found block overlaps the planted one substantially.
  size_t planted_hits = 0;
  for (VertexId v : blocks[0].left) {
    if (v >= 40) ++planted_hits;
  }
  EXPECT_GE(planted_hits, 4u);
  // Every reported block satisfies the predicate and thresholds.
  for (const Biplex& b : blocks) {
    EXPECT_TRUE(IsDeltaQuasiBiclique(g, b, opts.delta));
    EXPECT_GE(b.left.size(), opts.theta_left);
    EXPECT_GE(b.right.size(), opts.theta_right);
  }
}

TEST(QuasiBiclique, BlocksAreDisjoint) {
  Rng rng(9);
  auto base = ErdosRenyiBipartite(30, 30, 40, &rng);
  auto g1 = PlantDenseBlock(base, 6, 6, 1.0, &rng);
  auto g = PlantDenseBlock(g1, 6, 6, 1.0, &rng);
  QuasiBicliqueOptions opts;
  opts.delta = 0.1;
  opts.theta_left = 4;
  opts.theta_right = 4;
  auto blocks = FindQuasiBicliqueBlocks(g, opts);
  std::vector<bool> seen_left(g.NumLeft(), false);
  for (const Biplex& b : blocks) {
    for (VertexId v : b.left) {
      EXPECT_FALSE(seen_left[v]) << "blocks overlap";
      seen_left[v] = true;
    }
  }
  EXPECT_GE(blocks.size(), 2u);
}

// ------------------------------------------------------------------ fraud --

FraudDataset SmallAttack(uint64_t seed) {
  Rng rng(seed);
  // Mirrors the paper's proportions at laptop scale: camouflage comments
  // spread thinly over many real products (<3% per pair), a fraud block
  // around 40% dense.
  auto organic = PowerLawBipartiteAsym(2000, 150, 2500, 3.0, 2.3, &rng);
  CamouflageAttackConfig cfg;
  cfg.fake_users = 30;
  cfg.fake_products = 20;
  cfg.fake_comments = 30 * 8;        // 8 fake comments per fake user
  cfg.camouflage_comments = 30 * 4;  // thin camouflage (~1% per pair)
  cfg.seed = seed + 1;
  return InjectCamouflageAttack(organic, cfg);
}

TEST(Fraud, InjectionShapes) {
  FraudDataset data = SmallAttack(3);
  EXPECT_EQ(data.graph.NumLeft(), 2030u);
  EXPECT_EQ(data.graph.NumRight(), 170u);
  EXPECT_EQ(data.num_real_users, 2000u);
  EXPECT_FALSE(data.IsFakeUser(0));
  EXPECT_TRUE(data.IsFakeUser(2000));
  EXPECT_TRUE(data.IsFakeProduct(150));
  auto ut = data.UserTruth();
  EXPECT_EQ(std::count(ut.begin(), ut.end(), true), 30);
  // Every fake user got its full comment quota.
  for (VertexId v = 2000; v < 2030; ++v) {
    EXPECT_EQ(data.graph.LeftDegree(v), 12u);
  }
}

TEST(Fraud, BiplexDetectorFindsFraudBlock) {
  FraudDataset data = SmallAttack(4);
  // Paper-like thresholds (θ_L = 4, θ_R = 5) suppress the organic hubs.
  DetectionResult r = DetectByBiplex(data, /*k=*/1, /*theta_l=*/4,
                                     /*theta_r=*/5);
  ASSERT_TRUE(r.FlaggedAnything());
  BinaryMetrics m = EvaluateDetection(data, r);
  ASSERT_TRUE(m.defined);
  // The dense fraud block dominates: most flags should be fake items.
  EXPECT_GT(m.precision, 0.45);
  EXPECT_GT(m.recall, 0.9);
}

TEST(Fraud, BudgetStoppedDetectorsSaySo) {
  FraudDataset data = SmallAttack(4);
  EXPECT_TRUE(DetectByBiplex(data, 1, 4, 5).completed);
  // One result, or a time budget that has expired by the first poll.
  DetectionResult one = DetectByBiplex(data, 1, 4, 5, {.max_results = 1});
  EXPECT_FALSE(one.completed);
  EXPECT_EQ(one.subgraphs_found, 1u);
  DetectionResult timed =
      DetectByBiplex(data, 1, 4, 5, {.time_budget_seconds = 1e-9});
  EXPECT_FALSE(timed.completed);
  EXPECT_FALSE(DetectByBiclique(data, 4, 3, {.max_results = 1}).completed);
}

TEST(Fraud, AlphaBetaCoreHasHighRecallLowerPrecision) {
  FraudDataset data = SmallAttack(5);
  DetectionResult core = DetectByAlphaBetaCore(data, /*alpha=*/5,
                                               /*beta=*/4);
  BinaryMetrics mc = EvaluateDetection(data, core);
  DetectionResult biplex = DetectByBiplex(data, 1, /*theta_l=*/4,
                                          /*theta_r=*/5);
  BinaryMetrics mb = EvaluateDetection(data, biplex);
  ASSERT_TRUE(mc.defined);
  ASSERT_TRUE(mb.defined);
  // The (α,β)-core is coarse: recall at least as high as the biplex
  // detector, precision no better (Figure 13's qualitative shape).
  EXPECT_GE(mc.recall + 1e-9, mb.recall);
  EXPECT_LE(mc.precision, mb.precision + 1e-9);
}

TEST(Fraud, QuasiBicliqueDetectorRuns) {
  FraudDataset data = SmallAttack(6);
  DetectionResult r = DetectByQuasiBiclique(data, 0.45, 4, 5);
  BinaryMetrics m = EvaluateDetection(data, r);
  if (m.defined) {
    EXPECT_GT(m.recall, 0.0);
  }
}

TEST(Fraud, BicliqueRecallCollapsesAtHighThresholds) {
  FraudDataset data = SmallAttack(7);
  DetectionResult strict = DetectByBiclique(data, 4, 5);
  DetectionResult biplex = DetectByBiplex(data, 1, 4, 5);
  BinaryMetrics ms = EvaluateDetection(data, strict);
  BinaryMetrics mb = EvaluateDetection(data, biplex);
  ASSERT_TRUE(mb.defined);
  // Bicliques demand complete connections, so at the same thresholds their
  // recall is (much) lower than 1-biplexes' (Figure 13(b)).
  const double biclique_recall = ms.defined ? ms.recall : 0.0;
  EXPECT_LT(biclique_recall, mb.recall + 1e-9);
}

}  // namespace
}  // namespace kbiplex
