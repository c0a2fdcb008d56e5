// Parallel-enumeration scaling: sweeps the EnumerateRequest::threads knob
// over 1/2/4/8 workers for one workload per plan of the execution driver
// (api/parallel_driver.h). Records are named "<plan>/threads=N":
//
//   brute-force-masks         left-mask range sharding on one dense graph
//   imb-roots                 root-branch sharding of the set-enumeration
//                             tree
//   itraversal-components     peel, split, enumerate: the request's
//   large-mbp-components      (theta-k)-core splits into one shard per
//                             component at every thread count, threads=1
//                             included (multi-component graph, thresholds
//                             chosen so the component plan is safe)
//   itraversal-one-component  sequential: one dense component with no
//   btraversal-one-component  thresholds, which the plan cannot split
//
// Each row reports wall seconds, the speedup over the 1-thread run, the
// delivered solution count and the engine's work units. Solutions must
// be identical down the column, and on every row but the two sharded
// baselines so must the work units: the component shards are the same at
// every thread count, so extra threads may only spread the work, never
// add or remove any. A mismatch means a driver bug, and the bench says
// so loudly (exit status 1).
//
// Speedups track the machine: on a single-core container every row is
// ~1.0x; the >1 numbers need real hardware threads.
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/enumerator.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

struct Workload {
  std::string plan;   // record-name prefix, unique per workload
  std::string label;  // human-readable description
  BipartiteGraph graph;
  EnumerateRequest request;  // threads overwritten per run
  bool same_work = true;     // work units equal at every thread count
};

BipartiteGraph MultiComponentGraph(size_t components, size_t side,
                                   double p, uint64_t seed) {
  Rng rng(seed);
  std::vector<BipartiteGraph::Edge> edges;
  for (size_t c = 0; c < components; ++c) {
    BipartiteGraph block = ErdosRenyiProbBipartite(side, side, p, &rng);
    const VertexId off = static_cast<VertexId>(c * side);
    for (const auto& [l, r] : block.Edges()) {
      edges.emplace_back(l + off, r + off);
    }
  }
  return BipartiteGraph::FromEdges(components * side, components * side,
                                   std::move(edges));
}

std::vector<Workload> MakeWorkloads(bool quick) {
  std::vector<Workload> out;
  Rng rng(1234);

  {
    Workload w;
    w.plan = "brute-force-masks";
    w.label = "brute-force (mask sharding)";
    const size_t side = quick ? 12 : 14;
    w.graph = ErdosRenyiProbBipartite(side, side, 0.5, &rng);
    w.request.algorithm = "brute-force";
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.plan = "imb-roots";
    w.label = "imb (root-branch sharding)";
    w.graph = ErdosRenyiProbBipartite(quick ? 24 : 30, quick ? 24 : 30,
                                      0.25, &rng);
    w.request.algorithm = "imb";
    w.request.theta_left = 3;
    w.request.theta_right = 3;
    w.same_work = false;  // each root range counts the tree's root again
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.plan = "itraversal-components";
    w.label = "itraversal (component sharding)";
    w.graph = MultiComponentGraph(8, quick ? 14 : 18, 0.45, 99);
    w.request.algorithm = "itraversal";
    w.request.theta_left = 3;   // safe: theta_l > k_r, theta_r > 2 k_l
    w.request.theta_right = 3;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.plan = "large-mbp-components";
    w.label = "large-mbp (component sharding)";
    w.graph = MultiComponentGraph(8, quick ? 16 : 20, 0.4, 77);
    w.request.algorithm = "large-mbp";
    w.request.theta_left = 4;
    w.request.theta_right = 4;
    out.push_back(std::move(w));
  }
  // One dense connected component with no size thresholds: the component
  // plan is both unsafe (thetas do not exclude cross-component MBPs) and
  // useless (one shard), so the driver runs the sequential engine.
  {
    Workload w;
    w.plan = "itraversal-one-component";
    w.label = "itraversal (sequential fallback, one dense component)";
    const size_t side = quick ? 9 : 11;
    w.graph = ErdosRenyiProbBipartite(side, side, 0.6, &rng);
    w.request.algorithm = "itraversal";
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.plan = "btraversal-one-component";
    w.label = "btraversal (sequential fallback, one dense component)";
    const size_t side = quick ? 9 : 10;
    w.graph = ErdosRenyiProbBipartite(side, side, 0.6, &rng);
    w.request.algorithm = "btraversal";
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  BenchJsonWriter writer("parallel_scaling");
  bool consistent = true;
  for (Workload& w : MakeWorkloads(quick)) {
    std::cout << "== " << w.label << " (|L|=" << w.graph.NumLeft()
              << ", |R|=" << w.graph.NumRight()
              << ", |E|=" << w.graph.NumEdges() << ", k=1) ==\n";
    TextTable table(
        {"threads", "seconds", "speedup", "solutions", "work_units"});
    double base_seconds = 0;
    uint64_t base_solutions = 0;
    uint64_t base_work = 0;
    for (int threads : {1, 2, 4, 8}) {
      w.request.threads = threads;
      EnumerateStats stats;
      CountingSink sink;
      stats = Enumerate(w.graph, w.request, &sink);
      if (!stats.ok()) {
        std::cout << "request rejected: " << stats.error << "\n";
        consistent = false;
        break;
      }
      if (threads == 1) {
        base_seconds = stats.seconds;
        base_solutions = stats.solutions;
        base_work = stats.work_units;
      } else if (stats.solutions != base_solutions) {
        std::cout << "ERROR: " << w.plan << " threads=" << threads
                  << " delivered " << stats.solutions << " solutions, "
                  << base_solutions << " at threads=1\n";
        consistent = false;
      } else if (w.same_work && stats.work_units != base_work) {
        std::cout << "ERROR: " << w.plan << " threads=" << threads
                  << " did " << stats.work_units << " work units, "
                  << base_work << " at threads=1\n";
        consistent = false;
      }
      writer.AddRun(w.plan + "/threads=" + std::to_string(threads), w.label,
                    w.request, stats);
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    stats.seconds > 0 ? base_seconds / stats.seconds : 1.0);
      table.AddRow({std::to_string(threads), FormatSeconds(stats.seconds),
                    speedup, std::to_string(stats.solutions),
                    std::to_string(stats.work_units)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  if (!consistent) {
    std::cout << "ERROR: results diverged across thread counts\n";
    return 1;
  }
  return 0;
}
