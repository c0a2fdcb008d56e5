// Tests of the prepare/execute session API: PreparedGraph artifact caching
// (built at most once under concurrent sessions), renumbering map-back
// agreement with the seed path for all eight algorithms, scratch reuse
// across interleaved queries, the sink threading contract, the core-bound
// short-circuit, and JSON stats schema stability of the Enumerate shim.
#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "core/brute_force.h"
#include "graph/core_decomposition.h"
#include "test_support.h"

namespace kbiplex {
namespace {

using testing_support::CollectRequest;
using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

std::vector<std::string> AllAlgorithms() {
  return AlgorithmRegistry::Global().Names();
}

/// A request every backend accepts (large-mbp needs thetas; brute force
/// needs small sides — the test graphs stay below its cap).
EnumerateRequest UniversalRequest(const std::string& algorithm) {
  EnumerateRequest req;
  req.algorithm = algorithm;
  req.k = KPair::Uniform(1);
  req.theta_left = 2;
  req.theta_right = 2;
  return req;
}

// ------------------------------------------------------ artifact caching --

TEST(PreparedGraphTest, ArtifactsBuildLazilyAndOnce) {
  BipartiteGraph g = MakeRandomGraph({8, 8, 0.5, 7});
  auto prepared =
      PreparedGraph::Prepare(std::move(g), {.renumber = true});
  PrepareArtifactStats before = prepared->artifact_stats();
  EXPECT_EQ(before.execution_graph_builds, 0);
  EXPECT_EQ(before.core_bound_builds, 0);

  prepared->ExecutionGraph();
  prepared->ExecutionGraph();
  prepared->Components();
  prepared->Components();
  prepared->MaxUniformCore();
  prepared->MaxUniformCore();

  PrepareArtifactStats after = prepared->artifact_stats();
  EXPECT_EQ(after.execution_graph_builds, 1);
  EXPECT_EQ(after.core_bound_builds, 1);

  // Warmup builds every artifact.
  auto warmed = PreparedGraph::Prepare(MakeRandomGraph({8, 8, 0.5, 7}),
                                       {.renumber = true});
  warmed->Warmup();
  const PrepareArtifactStats warm = warmed->artifact_stats();
  EXPECT_EQ(warm.execution_graph_builds, 1);
  EXPECT_EQ(warm.core_bound_builds, 1);
}

TEST(PreparedGraphTest, ComponentPlanRepeatsAcrossQueriesAndThreadCounts) {
  // Two components big enough to shard; thresholds satisfy the sharding
  // safety condition (theta > 2k), so every run takes the component plan
  // — threads = 1 included — and repeats the same shards and work.
  BipartiteGraph g = MakeGraph(
      6, 6, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2},
             {2, 0}, {2, 1}, {2, 2},  // component A: 3x3 biclique
             {3, 3}, {3, 4}, {3, 5}, {4, 3}, {4, 4}, {4, 5},
             {5, 3}, {5, 4}, {5, 5}});  // component B: 3x3 biclique
  auto prepared = PreparedGraph::Prepare(std::move(g));
  QuerySession session(prepared);

  EnumerateRequest seq = UniversalRequest("itraversal");
  seq.theta_left = 3;
  seq.theta_right = 3;
  CollectingSink sequential;
  EnumerateStats seq_stats = session.Run(seq, &sequential);
  ASSERT_TRUE(seq_stats.ok()) << seq_stats.error;
  ASSERT_TRUE(seq_stats.plan.has_value());
  EXPECT_EQ(seq_stats.plan->name, "components");
  EXPECT_EQ(seq_stats.plan->shards, 2u);
  const std::vector<Biplex> expected = sequential.Take();
  ASSERT_EQ(expected.size(), 2u);

  EnumerateRequest par = seq;
  par.threads = 2;
  for (int round = 0; round < 3; ++round) {
    CollectingSink parallel;
    EnumerateStats par_stats = session.Run(par, &parallel);
    ASSERT_TRUE(par_stats.ok()) << par_stats.error;
    EXPECT_EQ(parallel.Take(), expected);
    EXPECT_EQ(par_stats.work_units, seq_stats.work_units);
    ASSERT_TRUE(par_stats.plan.has_value());
    EXPECT_EQ(par_stats.plan->shards, 2u);
  }
}

TEST(PreparedGraphTest, ArtifactsBuildOnceUnderConcurrentSessions) {
  BipartiteGraph g = MakeRandomGraph({10, 10, 0.4, 11});
  auto prepared = PreparedGraph::Prepare(
      std::move(g),
      {.adjacency_index = AdjacencyAccelMode::kAuto, .renumber = true});

  // Many sessions over one prepared graph, all racing to build every
  // artifact and to answer the same query; the builds must collapse to one
  // per artifact and every session must see the same solution count.
  constexpr int kSessions = 8;
  std::vector<uint64_t> counts(kSessions, 0);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int t = 0; t < kSessions; ++t) {
      threads.emplace_back([&, t] {
        QuerySession session(prepared);
        prepared->Components();
        prepared->MaxUniformCore();
        EnumerateRequest req = UniversalRequest("itraversal");
        req.theta_left = req.theta_right = 1;
        EnumerateStats stats;
        counts[t] = session.Count(req, &stats);
        if (!stats.ok() || !stats.completed) failures.fetch_add(1);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kSessions; ++t) EXPECT_EQ(counts[t], counts[0]);

  PrepareArtifactStats stats = prepared->artifact_stats();
  EXPECT_EQ(stats.execution_graph_builds, 1);
  EXPECT_EQ(stats.core_bound_builds, 1);
  EXPECT_NE(prepared->ExecutionGraph().adjacency_index(), nullptr);
}

TEST(PreparedGraphTest, BorrowNeverMutatesTheCallerGraph) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 3});
  auto borrowed = PreparedGraph::Borrow(g);
  EXPECT_EQ(&borrowed->ExecutionGraph(), &g);
  borrowed->Components();
  borrowed->MaxUniformCore();
  EXPECT_EQ(g.adjacency_index(), nullptr);
  EXPECT_FALSE(borrowed->renumbered());
}

TEST(PreparedGraphTest, AutoAttachesOnSmallGraphs) {
  // kAuto attaches whatever the edge count: a 6 x 6 graph gets one-word
  // rows.
  BipartiteGraph small = MakeRandomGraph({6, 6, 0.5, 5});
  auto prepared = PreparedGraph::Prepare(std::move(small), {});
  const AdjacencyIndex* index = prepared->ExecutionGraph().adjacency_index();
  ASSERT_NE(index, nullptr);
  EXPECT_GT(index->NumRows(Side::kLeft) + index->NumRows(Side::kRight), 0u);
  EXPECT_EQ(prepared->artifact_stats().adjacency_memory_bytes,
            index->MemoryBytes());
}

TEST(PreparedGraphTest, MaxUniformCoreMatchesCorePeelingDefinition) {
  // The one-pass degeneracy peel must agree with the definition: the
  // largest a whose (a,a)-core is non-empty.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (double p : {0.15, 0.4, 0.8}) {
      BipartiteGraph g = MakeRandomGraph({9, 7, p, seed});
      size_t expect = 0;
      while (!AlphaBetaCore(g, expect + 1, expect + 1).Empty()) ++expect;
      auto prepared = PreparedGraph::Prepare(std::move(g), {});
      EXPECT_EQ(prepared->MaxUniformCore(), expect)
          << "seed=" << seed << " p=" << p;
    }
  }
  // Edgeless and empty graphs report 0.
  EXPECT_EQ(PreparedGraph::Prepare(MakeGraph(3, 3, {}), {})->MaxUniformCore(),
            0u);
  EXPECT_EQ(PreparedGraph::Prepare(BipartiteGraph(), {})->MaxUniformCore(),
            0u);
}

// ------------------------------------------- renumbered map-back parity --

TEST(QuerySessionTest, RenumberedSessionMatchesSeedForAllAlgorithms) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BipartiteGraph g = MakeRandomGraph({7, 6, 0.5, seed});
    QuerySession seed_path(PreparedGraph::Borrow(g));
    auto prepared = PreparedGraph::Prepare(
        BipartiteGraph(g),
        {.adjacency_index = AdjacencyAccelMode::kAuto, .renumber = true});
    QuerySession session(prepared);
    for (const std::string& name : AllAlgorithms()) {
      EnumerateRequest req = UniversalRequest(name);
      EnumerateStats seed_stats, session_stats;
      std::vector<Biplex> expect = seed_path.Collect(req, &seed_stats);
      std::vector<Biplex> got = session.Collect(req, &session_stats);
      ASSERT_TRUE(seed_stats.ok()) << name << ": " << seed_stats.error;
      ASSERT_TRUE(session_stats.ok()) << name << ": " << session_stats.error;
      ASSERT_EQ(got, expect)
          << name << " seed=" << seed << "\ngot:\n"
          << ToString(got) << "want:\n"
          << ToString(expect);

      // The same prepared graph must serve parallel requests, still in
      // input ids.
      EnumerateRequest par = req;
      par.threads = 4;
      std::vector<Biplex> got_par = session.Collect(par, &session_stats);
      ASSERT_TRUE(session_stats.ok()) << name << ": " << session_stats.error;
      ASSERT_EQ(got_par, expect) << name << " (threads=4) seed=" << seed;
    }
  }
}

// --------------------------------------------------------- scratch reuse --

TEST(QuerySessionTest, InterleavedQueriesReuseScratchCorrectly) {
  BipartiteGraph g = MakeRandomGraph({8, 7, 0.45, 9});
  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g), {});
  QuerySession session(prepared);

  // Interleave algorithms and shapes so the pooled frames and workspace
  // are handed between engines with different graph-facing state; every
  // run must match a fresh session's bit for bit.
  const std::vector<std::string> sequence = {
      "itraversal", "btraversal",  "large-mbp", "itraversal",
      "imb",        "brute-force", "large-mbp", "itraversal-es"};
  for (size_t round = 0; round < 2; ++round) {
    for (const std::string& name : sequence) {
      EnumerateRequest req = UniversalRequest(name);
      EnumerateStats stats;
      std::vector<Biplex> got = session.Collect(req, &stats);
      ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
      EXPECT_EQ(got, CollectRequest(g, req)) << name << " round " << round;
    }
  }
  EXPECT_EQ(session.queries_run(), 2 * sequence.size());
}

// ------------------------------------------------- sink thread contract --

class BareCustomSink : public SolutionSink {
 public:
  bool Accept(const Biplex&) override { return true; }
};

TEST(SinkContract, ParallelRunRejectsNonThreadCompatibleSink) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 13});
  BareCustomSink bare;
  EnumerateRequest req;
  req.algorithm = "brute-force";
  req.threads = 2;
  EnumerateStats stats = Enumerate(g, req, &bare);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("SynchronizedSink"), std::string::npos)
      << stats.error;
  EXPECT_FALSE(stats.completed);

  // The standard remedy: wrap it.
  SynchronizedSink wrapped(&bare);
  EXPECT_TRUE(Enumerate(g, req, &wrapped).ok());

  // Sequential runs never involve worker threads; no declaration needed.
  req.threads = 1;
  EXPECT_TRUE(Enumerate(g, req, &bare).ok());

  // A callback declared thread-affine gets the same rejection as a bare
  // custom sink; the default CallbackSink stays parallel-friendly.
  req.threads = 2;
  CallbackSink affine([](const Biplex&) { return true; },
                      /*thread_compatible=*/false);
  EXPECT_FALSE(Enumerate(g, req, &affine).ok());
  CallbackSink friendly([](const Biplex&) { return true; });
  EXPECT_TRUE(Enumerate(g, req, &friendly).ok());
}

// -------------------------------------------------- core-bound shortcut --

TEST(QuerySessionTest, CoreBoundAnswersImpossibleThresholdsInstantly) {
  // A sparse path-like graph has a tiny core; thresholds far above it are
  // provably unsatisfiable.
  BipartiteGraph g = MakeGraph(6, 6, {{0, 0}, {1, 0}, {1, 1}, {2, 1},
                                      {2, 2}, {3, 2}, {3, 3}, {4, 3},
                                      {4, 4}, {5, 4}, {5, 5}});
  std::vector<Biplex> expect =
      FilterBySize(BruteForceMaximalBiplexes(g, KPair::Uniform(1)), 5, 5);
  ASSERT_TRUE(expect.empty());

  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g), {});
  QuerySession session(prepared);
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.theta_left = 5;
  req.theta_right = 5;
  EnumerateStats stats;
  EXPECT_EQ(session.Count(req, &stats), 0u);
  EXPECT_TRUE(stats.ok());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(session.short_circuits(), 1u);

  // A request with backend options skips the shortcut so option typos are
  // still rejected.
  req.backend_options["no_such_option"] = "1";
  stats = EnumerateStats();
  session.Run(req, [](const Biplex&) { return true; });
  EXPECT_EQ(session.short_circuits(), 1u);
  req.backend_options.clear();

  // Preparing with the shortcut disabled (the one-shot CLI policy) runs
  // the backend: same empty answer, but with the backend's counter block.
  PrepareOptions one_shot;
  one_shot.core_bound_shortcut = false;
  QuerySession compat(PreparedGraph::Prepare(BipartiteGraph(g), one_shot));
  req.algorithm = "large-mbp";
  EXPECT_EQ(compat.Count(req, &stats), 0u);
  EXPECT_TRUE(stats.ok());
  EXPECT_TRUE(stats.large_mbp.has_value());
  EXPECT_EQ(compat.short_circuits(), 0u);
}

TEST(QuerySessionTest, CoreBoundShortCircuitAgreesWithFullRuns) {
  // Sweep thresholds across the satisfiable/unsatisfiable boundary: the
  // shortcut must never fire on a query with a non-empty answer.
  for (uint64_t seed : {21u, 22u}) {
    BipartiteGraph g = MakeRandomGraph({7, 7, 0.4, seed});
    auto prepared = PreparedGraph::Prepare(BipartiteGraph(g), {});
    QuerySession session(prepared);
    for (size_t theta = 1; theta <= 6; ++theta) {
      std::vector<Biplex> expect = FilterBySize(
          BruteForceMaximalBiplexes(g, KPair::Uniform(1)), theta, theta);
      EnumerateRequest req;
      req.algorithm = "itraversal";
      req.theta_left = theta;
      req.theta_right = theta;
      EnumerateStats stats;
      std::vector<Biplex> got = session.Collect(req, &stats);
      ASSERT_TRUE(stats.ok()) << stats.error;
      ASSERT_EQ(got, expect) << "seed=" << seed << " theta=" << theta;
    }
  }
}

// ------------------------------------------------- shim schema stability --

/// Extracts the top-level keys of a flat-ish one-line JSON object (the
/// ToJson output): every quoted string followed by ':' at nesting depth 1.
std::set<std::string> TopLevelJsonKeys(const std::string& json) {
  std::set<std::string> keys;
  int depth = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == '"' && depth == 1) {
      const size_t end = json.find('"', i + 1);
      if (end == std::string::npos) break;
      if (end + 1 < json.size() && json[end + 1] == ':') {
        keys.insert(json.substr(i + 1, end - i - 1));
      }
      i = end;
    }
  }
  return keys;
}

TEST(EnumerateShim, JsonStatsSchemaUnchanged) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 17});
  EnumerateRequest req;
  req.algorithm = "itraversal";
  CountingSink sink;
  EnumerateStats shim = Enumerate(g, req, &sink);
  ASSERT_TRUE(shim.ok());

  // The shim's top-level JSON keys are exactly the pre-session schema
  // plus the additive "phases" object carrying the execution plan.
  const std::set<std::string> expect = {
      "algorithm",     "solutions", "work_units", "completed", "cancelled",
      "out_of_memory", "seconds",   "traversal",  "phases"};
  EXPECT_EQ(TopLevelJsonKeys(shim.ToJson()), expect);

  // And a session run over the same request emits the same schema.
  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g), {});
  QuerySession session(prepared);
  CountingSink sink2;
  EnumerateStats through_session = session.Run(req, &sink2);
  ASSERT_TRUE(through_session.ok());
  EXPECT_EQ(TopLevelJsonKeys(through_session.ToJson()),
            TopLevelJsonKeys(shim.ToJson()));
}

}  // namespace
}  // namespace kbiplex
