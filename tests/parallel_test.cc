// Tests of the parallel enumeration subsystem: the thread pool, the
// component decomposition, the thread-safe sink wrapper, cancellation
// chaining, the canonical-order SortingSink, and — the load-bearing
// property — that the multi-threaded driver delivers exactly the 1-thread
// solution set for every registered algorithm.
#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "api/parallel_driver.h"
#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "api/solution_sink.h"
#include "core/brute_force.h"
#include "core/btraversal.h"
#include "graph/components.h"
#include "graph/core_decomposition.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "test_support.h"
#include "util/json_value.h"
#include "util/thread_pool.h"

namespace kbiplex {
namespace {

using testing_support::CollectRequest;
using testing_support::CollectWith;
using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

// ------------------------------------------------------------ components --

TEST(Components, SplitsAndMapsBack) {
  // Two components: {l0, l1 | r0} and {l2 | r1, r2}; l3 and r3 isolated.
  BipartiteGraph g =
      MakeGraph(4, 4, {{0, 0}, {1, 0}, {2, 1}, {2, 2}});
  std::vector<InducedSubgraph> comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 4u);
  EXPECT_EQ(comps[0].left_map, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(comps[0].right_map, (std::vector<VertexId>{0}));
  EXPECT_EQ(comps[0].graph.NumEdges(), 2u);
  EXPECT_EQ(comps[1].left_map, (std::vector<VertexId>{2}));
  EXPECT_EQ(comps[1].right_map, (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(comps[2].left_map, (std::vector<VertexId>{3}));
  EXPECT_TRUE(comps[2].right_map.empty());
  EXPECT_TRUE(comps[3].left_map.empty());
  EXPECT_EQ(comps[3].right_map, (std::vector<VertexId>{3}));
}

TEST(Components, EveryVertexAppearsExactlyOnce) {
  BipartiteGraph g = MakeRandomGraph({12, 10, 0.08, 7});
  std::vector<InducedSubgraph> comps = ConnectedComponents(g);
  std::set<VertexId> left, right;
  size_t edges = 0;
  for (const InducedSubgraph& c : comps) {
    for (VertexId v : c.left_map) EXPECT_TRUE(left.insert(v).second);
    for (VertexId u : c.right_map) EXPECT_TRUE(right.insert(u).second);
    edges += c.graph.NumEdges();
  }
  EXPECT_EQ(left.size(), g.NumLeft());
  EXPECT_EQ(right.size(), g.NumRight());
  EXPECT_EQ(edges, g.NumEdges());
}

// ------------------------------------------------- synchronized sink ------

TEST(Sinks, SynchronizedSinkStopIsSticky) {
  int accepted = 0;
  CallbackSink inner([&](const Biplex&) { return ++accepted < 2; });
  SynchronizedSink sink(&inner);
  Biplex b{{0}, {0}};
  EXPECT_TRUE(sink.Accept(b));
  EXPECT_FALSE(sink.Accept(b));  // inner refuses
  EXPECT_FALSE(sink.Accept(b));  // sticky: inner not called again
  EXPECT_EQ(accepted, 2);
}

TEST(Sinks, SynchronizedSinkSerializesConcurrentWriters) {
  CountingSink counter;
  SynchronizedSink sink(&counter);
  ThreadPool pool(4);
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&sink] { sink.Accept(Biplex{{0}, {0}}); });
  }
  pool.Wait();
  EXPECT_EQ(counter.count(), 200u);
}

// ---------------------------------------------------- token chaining ------

TEST(Cancellation, ChildTokenSeesParentCancel) {
  CancellationToken parent;
  CancellationToken child(&parent);
  EXPECT_FALSE(child.IsCancelled());
  parent.Cancel();
  EXPECT_TRUE(child.IsCancelled());
}

TEST(Cancellation, ChildCancelDoesNotReachParent) {
  CancellationToken parent;
  CancellationToken child(&parent);
  child.Cancel();
  EXPECT_TRUE(child.IsCancelled());
  EXPECT_FALSE(parent.IsCancelled());
}

// -------------------------------------------------- sharding safety -------

TEST(ParallelDriver, ComponentShardingSafetyCondition) {
  // Two disjoint edges form one maximal 1-biplex spanning both
  // components, so thresholds at or below the budgets are never safe.
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 0, 0));
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 1, 1));
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 2, 2));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 2, 3));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 3, 3));
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(2), 3, 3));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair::Uniform(2), 3, 5));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair{1, 2}, 3, 3));
}

// ------------------------------------------- parallel == sequential -------

/// Disjoint union: appends `b`'s vertices after `a`'s on both sides.
BipartiteGraph DisjointUnion(const BipartiteGraph& a,
                             const BipartiteGraph& b) {
  std::vector<BipartiteGraph::Edge> edges = a.Edges();
  for (const auto& [l, r] : b.Edges()) {
    edges.emplace_back(l + static_cast<VertexId>(a.NumLeft()),
                       r + static_cast<VertexId>(a.NumRight()));
  }
  return BipartiteGraph::FromEdges(a.NumLeft() + b.NumLeft(),
                                   a.NumRight() + b.NumRight(),
                                   std::move(edges));
}

struct ParallelCase {
  KPair k;
  size_t theta_left;
  size_t theta_right;
};

TEST(ParallelAgreement, EveryAlgorithmMatchesSequentialSet) {
  // Multi-component graphs exercise the component plan where it is safe
  // and the sequential fallback where it is not; the connected graph
  // exercises the mask/root-range plans and the fallback.
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(DisjointUnion(MakeRandomGraph({4, 4, 0.6, 11}),
                                 MakeRandomGraph({4, 4, 0.7, 12})));
  graphs.push_back(DisjointUnion(
      DisjointUnion(MakeRandomGraph({3, 3, 0.8, 13}),
                    MakeRandomGraph({4, 3, 0.5, 14})),
      MakeRandomGraph({3, 4, 0.6, 15})));
  graphs.push_back(MakeRandomGraph({6, 6, 0.5, 16}));

  const std::vector<ParallelCase> cases = {
      {KPair::Uniform(1), 0, 0},  // unsafe for components: fallback path
      {KPair::Uniform(1), 1, 1},  // unsafe for components: fallback path
      {KPair::Uniform(1), 3, 3},  // safe: component plan engages
      {KPair::Uniform(2), 0, 0},
      {KPair::Uniform(2), 3, 5},  // safe for k = 2
      {KPair{1, 2}, 3, 3},        // asymmetric, traversal family only
  };
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    QuerySession session(PreparedGraph::Borrow(graphs[gi]));
    for (const ParallelCase& c : cases) {
      for (const std::string& name : registry.Names()) {
        AlgorithmInfo info = *registry.Find(name);
        if (!info.supports_asymmetric_k && !c.k.IsUniform()) continue;
        if (info.requires_theta && (c.theta_left < 1 || c.theta_right < 1)) {
          continue;
        }
        EnumerateRequest req;
        req.algorithm = name;
        req.k = c.k;
        req.theta_left = c.theta_left;
        req.theta_right = c.theta_right;

        EnumerateStats seq_stats;
        req.threads = 1;
        std::vector<Biplex> expect = session.Collect(req, &seq_stats);
        ASSERT_TRUE(seq_stats.ok()) << name << ": " << seq_stats.error;

        EnumerateStats par_stats;
        req.threads = 4;
        std::vector<Biplex> got = session.Collect(req, &par_stats);
        ASSERT_TRUE(par_stats.ok()) << name << ": " << par_stats.error;
        EXPECT_EQ(par_stats.solutions, seq_stats.solutions) << name;
        EXPECT_TRUE(par_stats.completed) << name;
        ASSERT_EQ(got, expect)
            << name << " graph=" << gi << " k=(" << c.k.left << ","
            << c.k.right << ") theta=(" << c.theta_left << ","
            << c.theta_right << ")\ngot:\n"
            << ToString(got) << "want:\n"
            << ToString(expect);
      }
    }
  }
}

TEST(ParallelAgreement, AutoThreadCountMatchesToo) {
  BipartiteGraph g = DisjointUnion(MakeRandomGraph({4, 4, 0.6, 21}),
                                   MakeRandomGraph({4, 4, 0.6, 22}));
  QuerySession session(PreparedGraph::Borrow(g));
  EnumerateRequest req;
  req.algorithm = "brute-force";
  req.threads = 1;
  std::vector<Biplex> expect = session.Collect(req);
  req.threads = 0;  // one worker per hardware thread
  EXPECT_EQ(session.Collect(req), expect);
}

// ------------------------------------------------ budgets, cancellation ---

/// Complete bipartite K(nl, nr): its unique maximal k-biplex is the whole
/// vertex set, which makes solution counts exact in the budget tests.
BipartiteGraph CompleteBipartite(size_t nl, size_t nr) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < nl; ++l) {
    for (VertexId r = 0; r < nr; ++r) edges.emplace_back(l, r);
  }
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

TEST(ParallelBudgets, MaxResultsIsGlobalAcrossWorkers) {
  // Two complete 5x5 components: with theta = (3, 3) each holds exactly
  // one maximal 1-biplex (its full vertex set), so a global cap of 2 is
  // reached exactly and stops every worker.
  BipartiteGraph g =
      DisjointUnion(CompleteBipartite(5, 5), CompleteBipartite(5, 5));
  QuerySession session(PreparedGraph::Borrow(g));
  for (const char* name : {"brute-force", "imb", "itraversal"}) {
    EnumerateRequest req;
    req.algorithm = name;
    req.threads = 4;
    req.theta_left = name == std::string_view("itraversal") ? 3 : 0;
    req.theta_right = req.theta_left;
    req.max_results = 2;
    EnumerateStats stats;
    uint64_t n = session.Count(req, &stats);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
    EXPECT_EQ(n, 2u) << name;
    EXPECT_EQ(stats.solutions, 2u) << name;
    EXPECT_FALSE(stats.completed) << name;
  }
}

TEST(ParallelBudgets, PreCancelledTokenStopsParallelRuns) {
  BipartiteGraph g = DisjointUnion(MakeRandomGraph({5, 5, 0.6, 33}),
                                   MakeRandomGraph({5, 5, 0.6, 34}));
  QuerySession session(PreparedGraph::Borrow(g));
  CancellationToken token;
  token.Cancel();
  EnumerateRequest req;
  req.algorithm = "brute-force";
  req.threads = 4;
  req.cancellation = &token;
  EnumerateStats stats;
  EXPECT_EQ(session.Count(req, &stats), 0u);
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.cancelled);
}

TEST(ParallelBudgets, SinkStopCountsOnlyAcceptedSolutions) {
  BipartiteGraph g = DisjointUnion(MakeRandomGraph({5, 5, 0.6, 35}),
                                   MakeRandomGraph({5, 5, 0.6, 36}));
  QuerySession session(PreparedGraph::Borrow(g));
  EnumerateRequest req;
  req.algorithm = "imb";
  req.threads = 4;
  std::atomic<int> calls{0};
  EnumerateStats stats = session.Run(
      req, [&](const Biplex&) { return calls.fetch_add(1) + 1 < 3; });
  ASSERT_TRUE(stats.ok()) << stats.error;
  // The sink accepted exactly two solutions before refusing the third.
  EXPECT_EQ(stats.solutions, 2u);
  EXPECT_FALSE(stats.completed);
}

TEST(ParallelBudgets, NegativeThreadsRejected) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}});
  EnumerateRequest req;
  req.threads = -2;
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("threads"), std::string::npos);
}

// --------------------------------------- one component: sequential ----

/// A dense graph that is one connected component with high probability —
/// the case component sharding cannot split, so every traversal-family
/// request on it runs the sequential engine whatever `threads` says.
BipartiteGraph DenseComponent() { return MakeRandomGraph({7, 7, 0.7, 91}); }

TEST(ParallelFacade, TraversalFamilyAgreesOnSingleDenseComponent) {
  const BipartiteGraph g = DenseComponent();
  QuerySession session(PreparedGraph::Borrow(g));
  for (const char* name : {"itraversal", "itraversal-es", "itraversal-es-rs",
                           "btraversal", "large-mbp"}) {
    const bool large = name == std::string("large-mbp");
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = large ? 3 : 0;
    req.theta_right = large ? 3 : 0;
    req.threads = 1;
    EnumerateStats seq_stats;
    const std::vector<Biplex> expect = session.Collect(req, &seq_stats);
    ASSERT_TRUE(seq_stats.ok()) << name << ": " << seq_stats.error;
    for (int threads : {2, 4, 8}) {
      req.threads = threads;
      EnumerateStats stats;
      const std::vector<Biplex> got = session.Collect(req, &stats);
      ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
      EXPECT_TRUE(stats.completed) << name << " threads=" << threads;
      ASSERT_EQ(got, expect) << name << " threads=" << threads;
    }
  }
}

TEST(ParallelFacade, OneComponentDoesNoExtraWorkAtMoreThreads) {
  // Splitting one component across workers would have to give up the
  // exclusion prune and multiply the work; the facade must instead run
  // the exclusion-pruned sequential engine at every thread count.
  const BipartiteGraph g = MakeRandomGraph({11, 11, 0.6, 95});
  ASSERT_EQ(ConnectedComponents(g).size(), 1u);
  QuerySession session(PreparedGraph::Borrow(g));
  for (const char* name : {"itraversal", "large-mbp"}) {
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = 3;
    req.theta_right = 3;
    req.threads = 1;
    EnumerateStats seq;
    const uint64_t expect = session.Count(req, &seq);
    ASSERT_TRUE(seq.ok()) << name << ": " << seq.error;
    ASSERT_GT(seq.work_units, 0u) << name;
    for (int threads : {2, 4}) {
      req.threads = threads;
      EnumerateStats par;
      EXPECT_EQ(session.Count(req, &par), expect) << name;
      ASSERT_TRUE(par.ok()) << name << ": " << par.error;
      EXPECT_EQ(par.work_units, seq.work_units)
          << name << " threads=" << threads;
    }
  }
}

// ------------------------------------ peel, split, enumerate: threads=1 --

/// A small `communities` graph: two dense 5x5 blocks, each tied by two
/// edges to one sparse base path r0-l0-r1, so the whole graph is one
/// connected component. The k = 1, theta = 4 peel (the (3, 3)-core)
/// unravels the base and leaves the two blocks as separate components.
/// 11 x 12 vertices keep the brute-force oracle affordable.
BipartiteGraph BlocksOnABase() {
  constexpr VertexId kSide = 5;
  constexpr VertexId kBlocks = 2;
  std::vector<BipartiteGraph::Edge> edges = {{0, 0}, {0, 1}};  // the base
  for (VertexId b = 0; b < kBlocks; ++b) {
    const VertexId left = 1 + b * kSide;
    const VertexId right = kBlocks + b * kSide;
    const BipartiteGraph block = MakeRandomGraph({kSide, kSide, 0.8, 41 + b});
    for (const auto& [l, r] : block.Edges()) {
      edges.emplace_back(l + left, r + right);
    }
    edges.emplace_back(left, b);  // two block left vertices -> base r_b
    edges.emplace_back(left + 1, b);
  }
  return BipartiteGraph::FromEdges(1 + kBlocks * kSide,
                                   kBlocks + kBlocks * kSide,
                                   std::move(edges));
}

TEST(ComponentPlan, ThreadsOneSplitsThePeeledCoreLikeThreadsFour) {
  const BipartiteGraph g = BlocksOnABase();
  ASSERT_EQ(ConnectedComponents(g).size(), 1u);
  const std::vector<Biplex> expect =
      FilterBySize(BruteForceMaximalBiplexes(g, 1), 4, 4);
  ASSERT_GE(expect.size(), 2u);

  // The whole-core run the plan replaces: one traversal over all blocks.
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.theta_left = 4;
  opts.theta_right = 4;
  TraversalStats whole;
  ASSERT_EQ(CollectWith(AlphaBetaCoreSubgraph(g, 3, 3).graph, opts, &whole)
                .size(),
            expect.size());

  QuerySession session(PreparedGraph::Borrow(g));
  for (const char* name : {"large-mbp", "itraversal"}) {
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = 4;
    req.theta_right = 4;
    req.threads = 1;
    EnumerateStats one;
    const std::vector<Biplex> got_one = session.Collect(req, &one);
    req.threads = 4;
    EnumerateStats four;
    const std::vector<Biplex> got_four = session.Collect(req, &four);
    ASSERT_TRUE(one.ok() && four.ok()) << name;
    EXPECT_EQ(got_one, expect) << name;
    EXPECT_EQ(got_four, expect) << name;
    for (const EnumerateStats* s : {&one, &four}) {
      ASSERT_TRUE(s->plan.has_value()) << name;
      EXPECT_EQ(s->plan->name, "components") << name;
      EXPECT_EQ(s->plan->shards, 2u) << name;
    }
    const TraversalStats& t1 =
        one.large_mbp ? one.large_mbp->traversal : *one.traversal;
    const TraversalStats& t4 =
        four.large_mbp ? four.large_mbp->traversal : *four.traversal;
    EXPECT_EQ(one.work_units, four.work_units) << name;
    EXPECT_EQ(t1.almost_sat_graphs, t4.almost_sat_graphs) << name;
    EXPECT_LT(one.work_units, whole.links) << name;
    EXPECT_LT(t1.almost_sat_graphs, whole.almost_sat_graphs) << name;
  }
}

/// Runs `request` once, at one thread, on the request's (theta - k)-core
/// of `g` (theta > k on both sides): the direct run a one-shard plan must
/// equal, counter for counter.
EnumerateStats DirectCoreRun(const BipartiteGraph& g,
                             EnumerateRequest request) {
  const BipartiteGraph core =
      AlphaBetaCoreSubgraph(
          g, request.theta_right - static_cast<size_t>(request.k.left),
          request.theta_left - static_cast<size_t>(request.k.right))
          .graph;
  request.threads = 1;
  EnumerateStats stats;
  CollectRequest(core, request, &stats);
  return stats;
}

TEST(ComponentPlan, UnsafeThresholdsAndLinkBudgetsKeepTheSequentialRun) {
  // The plan must run these requests as one shard, the peeled core, and
  // match a direct run on that core counter for counter.
  const BipartiteGraph g = BlocksOnABase();
  QuerySession session(PreparedGraph::Borrow(g));

  EnumerateRequest unsafe;  // theta <= 2k: spanning solutions exist
  unsafe.algorithm = "large-mbp";
  unsafe.theta_left = 2;
  unsafe.theta_right = 2;
  const EnumerateStats direct_large = DirectCoreRun(g, unsafe);
  ASSERT_TRUE(direct_large.large_mbp.has_value()) << direct_large.error;

  EnumerateRequest capped;  // safe thresholds, but a global link budget
  capped.algorithm = "itraversal";
  capped.theta_left = 4;
  capped.theta_right = 4;
  capped.max_links = 1u << 30;  // large enough to complete
  const EnumerateStats direct_trav = DirectCoreRun(g, capped);
  ASSERT_TRUE(direct_trav.traversal.has_value()) << direct_trav.error;

  for (int threads : {1, 4}) {
    unsafe.threads = threads;
    EnumerateStats s;
    session.Count(unsafe, &s);
    ASSERT_TRUE(s.ok() && s.large_mbp.has_value()) << s.error;
    ASSERT_TRUE(s.plan.has_value());
    EXPECT_EQ(s.plan->name, "sequential");
    EXPECT_EQ(s.plan->shards, 1u);
    EXPECT_EQ(s.large_mbp->core_left, direct_large.large_mbp->core_left);
    EXPECT_EQ(s.work_units, direct_large.work_units);
    EXPECT_EQ(s.large_mbp->traversal.almost_sat_graphs,
              direct_large.large_mbp->traversal.almost_sat_graphs);
    EXPECT_EQ(s.large_mbp->traversal.local_stats.adjacency_tests,
              direct_large.large_mbp->traversal.local_stats.adjacency_tests);

    capped.threads = threads;
    EnumerateStats c;
    session.Count(capped, &c);
    ASSERT_TRUE(c.ok() && c.traversal.has_value()) << c.error;
    ASSERT_TRUE(c.plan.has_value());
    EXPECT_EQ(c.plan->name, "sequential");
    EXPECT_EQ(c.plan->shards, 1u);
    EXPECT_TRUE(c.completed);
    EXPECT_EQ(c.work_units, direct_trav.work_units);
    EXPECT_EQ(c.traversal->almost_sat_graphs,
              direct_trav.traversal->almost_sat_graphs);
    EXPECT_EQ(c.traversal->local_stats.adjacency_tests,
              direct_trav.traversal->local_stats.adjacency_tests);
  }
}

TEST(ComponentPlan, OneSurvivingComponentReusesThePeelSequentially) {
  // Safe thresholds, but the core is one component: the backend runs
  // once on it, counter for counter like a direct run on the core. Two
  // pendant vertices hang off a dense 11 x 11 component; the (2, 2)-core
  // drops them.
  std::vector<BipartiteGraph::Edge> edges =
      MakeRandomGraph({11, 11, 0.6, 95}).Edges();
  edges.emplace_back(11, 0);
  edges.emplace_back(0, 11);
  const BipartiteGraph g = BipartiteGraph::FromEdges(12, 12, std::move(edges));
  ASSERT_EQ(ConnectedComponents(AlphaBetaCoreSubgraph(g, 2, 2).graph).size(),
            1u);
  QuerySession session(PreparedGraph::Borrow(g));
  for (const char* name : {"large-mbp", "itraversal", "btraversal"}) {
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = 3;
    req.theta_right = 3;
    const EnumerateStats direct = DirectCoreRun(g, req);
    ASSERT_GT(direct.work_units, 0u) << name;
    EnumerateStats s;
    EXPECT_EQ(session.Count(req, &s), direct.solutions) << name;
    ASSERT_TRUE(s.ok()) << s.error;
    ASSERT_TRUE(s.plan.has_value());
    EXPECT_EQ(s.plan->name, "sequential") << name;
    EXPECT_EQ(s.plan->shards, 1u) << name;
    EXPECT_EQ(s.work_units, direct.work_units) << name;
    const TraversalStats& t = s.large_mbp ? s.large_mbp->traversal
                                          : *s.traversal;
    const TraversalStats& d = direct.large_mbp
                                  ? direct.large_mbp->traversal
                                  : *direct.traversal;
    EXPECT_EQ(t.almost_sat_graphs, d.almost_sat_graphs) << name;
    EXPECT_EQ(t.candidates_generated, d.candidates_generated) << name;
    EXPECT_EQ(t.local_stats.adjacency_tests, d.local_stats.adjacency_tests)
        << name;
    if (s.large_mbp) {
      EXPECT_EQ(s.large_mbp->core_left, direct.large_mbp->core_left);
      EXPECT_EQ(s.large_mbp->core_right, direct.large_mbp->core_right);
    }
  }
}

TEST(ComponentPlan, EveryBackendRunsOnThePeeledCoreOfTheToyGraph) {
  // ci/toy_graph.txt at k = 1, theta = 3: the (2, 2)-core is one
  // component. Every backend but the oracles runs on it, so itraversal
  // and large-mbp do the same work, at any thread count, renumbered or
  // not.
  LoadResult loaded =
      LoadEdgeList(KBIPLEX_SOURCE_DIR "/ci/toy_graph.txt");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const std::vector<Biplex> expect =
      FilterBySize(BruteForceMaximalBiplexes(*loaded.graph, 1), 3, 3);
  ASSERT_EQ(expect.size(), 2u);
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (bool renumber : {false, true}) {
    auto prepared = PreparedGraph::Prepare(BipartiteGraph(*loaded.graph),
                                           {.renumber = renumber});
    QuerySession session(prepared);
    for (int threads : {1, 4}) {
      std::map<std::string, uint64_t> work;
      for (const std::string& name : registry.Names()) {
        EnumerateRequest req;
        req.algorithm = name;
        req.theta_left = 3;
        req.theta_right = 3;
        req.threads = threads;
        EnumerateStats s;
        EXPECT_EQ(session.Collect(req, &s), expect)
            << name << " threads=" << threads << " renumber=" << renumber;
        ASSERT_TRUE(s.ok() && s.completed) << name << ": " << s.error;
        work[name] = s.work_units;
        if (name == "brute-force" || name == "imb") continue;
        const EnumerateStats direct =
            DirectCoreRun(prepared->ExecutionGraph(), req);
        EXPECT_EQ(s.work_units, direct.work_units)
            << name << " threads=" << threads << " renumber=" << renumber;
      }
      EXPECT_EQ(work["itraversal"], work["large-mbp"])
          << "threads=" << threads << " renumber=" << renumber;
    }
  }
}

TEST(ComponentPlan, ThreadsOneAcceptsASinkThatIsNotThreadCompatible) {
  // threads = 1 runs the shards inline on the calling thread, so the
  // sink contract of a sequential run still holds.
  const BipartiteGraph g = BlocksOnABase();
  QuerySession session(PreparedGraph::Borrow(g));
  EnumerateRequest req;
  req.algorithm = "large-mbp";
  req.theta_left = 4;
  req.theta_right = 4;
  std::vector<Biplex> got;
  CallbackSink collect(
      [&](const Biplex& b) {
        got.push_back(b);
        return true;
      },
      /*thread_compatible=*/false);
  EnumerateStats stats = session.Run(req, &collect);
  ASSERT_TRUE(stats.ok()) << stats.error;
  ASSERT_TRUE(stats.plan.has_value());
  EXPECT_EQ(stats.plan->name, "components");
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, FilterBySize(BruteForceMaximalBiplexes(g, 1), 4, 4));
  CallbackSink thread_affine([](const Biplex&) { return true; },
                             /*thread_compatible=*/false);
  EXPECT_TRUE(session.Run(req, &thread_affine).ok());
  req.threads = 2;  // the same sink is refused wherever workers may call
  EXPECT_FALSE(session.Run(req, &thread_affine).ok());
}

// --------------------------------------------------------- SortingSink ---

TEST(SortingSink, FlushForwardsInCanonicalOrder) {
  CollectingSink inner(/*sorted=*/false);
  SortingSink sorter(&inner);
  EXPECT_TRUE(sorter.ThreadCompatible());
  EXPECT_TRUE(sorter.Accept(Biplex{{2}, {0}}));
  EXPECT_TRUE(sorter.Accept(Biplex{{0, 1}, {1}}));
  EXPECT_TRUE(sorter.Accept(Biplex{{0}, {2}}));
  EXPECT_EQ(sorter.buffered(), 3u);
  EXPECT_EQ(inner.size(), 0u);  // nothing forwarded before Flush
  EXPECT_TRUE(sorter.Flush());
  EXPECT_EQ(sorter.buffered(), 0u);
  const std::vector<Biplex> got = inner.Take();
  const std::vector<Biplex> want = {
      Biplex{{0}, {2}}, Biplex{{0, 1}, {1}}, Biplex{{2}, {0}}};
  EXPECT_EQ(got, want);
}

TEST(SortingSink, InnerRefusalStopsFlushEarly) {
  int accepted = 0;
  CallbackSink inner([&](const Biplex&) { return ++accepted < 2; });
  SortingSink sorter(&inner);
  sorter.Accept(Biplex{{1}, {1}});
  sorter.Accept(Biplex{{0}, {0}});
  sorter.Accept(Biplex{{2}, {2}});
  EXPECT_FALSE(sorter.Flush());
  EXPECT_EQ(accepted, 2);  // the refusal consumed the second solution
  EXPECT_EQ(sorter.buffered(), 0u);  // buffer cleared either way
}

TEST(SortingSink, MakesParallelStreamOrderDeterministic) {
  // Three components with theta = 3 (safe for k = 1): the parallel run
  // takes the component plan, whose workers deliver in arbitrary order.
  const BipartiteGraph g = DisjointUnion(
      DisjointUnion(MakeRandomGraph({6, 6, 0.7, 96}),
                    MakeRandomGraph({6, 6, 0.7, 97})),
      MakeRandomGraph({6, 6, 0.7, 98}));
  QuerySession session(PreparedGraph::Borrow(g));
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.theta_left = 3;
  req.theta_right = 3;
  req.threads = 1;
  CollectingSink seq_inner(/*sorted=*/false);
  SortingSink seq_sorter(&seq_inner);
  ASSERT_TRUE(session.Run(req, &seq_sorter).ok());
  seq_sorter.Flush();
  const std::vector<Biplex> expect = seq_inner.Take();
  ASSERT_GT(expect.size(), 3u);

  req.threads = 4;
  CollectingSink par_inner(/*sorted=*/false);
  SortingSink par_sorter(&par_inner);
  ASSERT_TRUE(session.Run(req, &par_sorter).ok());
  par_sorter.Flush();
  // Identical *sequence*, not just set: this is the property the CLI
  // --sort flag and the wire "sort" key build their byte-stability on.
  EXPECT_EQ(par_inner.Take(), expect);
}

// ----------------------------------------------- parallel imb bugfixes --

// Regression: the facade used to exclude the vertex-free graph from the
// parallel imb plan, and an embedder calling RunParallelImb directly got
// a SplitRange(0, n) shard whose handling was unpinned. The parallel run
// must reproduce the sequential result exactly: the empty biplex is the
// one maximal solution of the empty graph, and the stats carry the same
// imb detail block.
TEST(ParallelImb, EmptyGraphIsATrivialNoOp) {
  BipartiteGraph g = MakeGraph(0, 0, {});
  QuerySession session(PreparedGraph::Borrow(g));
  EnumerateRequest req;
  req.algorithm = "imb";
  req.threads = 1;
  EnumerateStats seq;
  const std::vector<Biplex> expect = session.Collect(req, &seq);
  ASSERT_TRUE(seq.ok()) << seq.error;
  ASSERT_EQ(expect, std::vector<Biplex>{Biplex{}});  // the empty biplex

  req.threads = 4;
  EnumerateStats par;
  const std::vector<Biplex> got = session.Collect(req, &par);
  ASSERT_TRUE(par.ok()) << par.error;
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(par.completed);
  EXPECT_TRUE(par.imb.has_value());
  EXPECT_EQ(par.solutions, 1u);
}

/// Top-level key set of a one-line JSON object, enough to compare the
/// stats schema of two runs without comparing values.
std::set<std::string> JsonKeys(const std::string& text) {
  json::ParseResult parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error << "\nin: " << text;
  std::set<std::string> keys;
  if (parsed.ok() && parsed.value.is_object()) {
    for (const auto& [key, value] : parsed.value.AsObject()) {
      keys.insert(key);
    }
  }
  return keys;
}

// Regression: shards skipped because the time budget expired before they
// started never engaged `stats.imb`, so a budget-expired parallel run's
// JSON dropped the "imb" detail block that every other imb run carries —
// a schema divergence that breaks key-based consumers.
TEST(ParallelImb, BudgetExpiredRunKeepsStatsSchema) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 77});
  QuerySession session(PreparedGraph::Borrow(g));
  EnumerateRequest req;
  req.algorithm = "imb";
  req.time_budget_seconds = 1e-12;  // expired before any shard starts

  req.threads = 1;
  EnumerateStats seq;
  session.Collect(req, &seq);
  ASSERT_TRUE(seq.ok()) << seq.error;
  // (The sequential run may still complete — a graph this small can
  // finish before the first deadline poll; the schema is what matters.)

  req.threads = 4;
  EnumerateStats par;
  session.Collect(req, &par);
  ASSERT_TRUE(par.ok()) << par.error;
  EXPECT_FALSE(par.completed);
  ASSERT_TRUE(par.imb.has_value());
  EXPECT_FALSE(par.imb->completed);

  // Golden property: identical JSON schema regardless of thread count.
  EXPECT_EQ(JsonKeys(par.ToJson()), JsonKeys(seq.ToJson()))
      << "seq: " << seq.ToJson() << "\npar: " << par.ToJson();
}

}  // namespace
}  // namespace kbiplex
