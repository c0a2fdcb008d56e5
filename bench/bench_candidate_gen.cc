// Candidate-generation benchmark: measures the traversal engine on dense
// synthetic workloads with its full acceleration stack (the hybrid bitset
// adjacency index and, where the equivalence gate holds, the
// incrementally maintained 2-hop candidate generator; both always on),
// with and without the degeneracy renumbering pass. Both configurations
// enumerate the same number of solutions (asserted), so the wall-clock
// ratio is apples to apples.
//
// Results print as a table and are recorded machine-readably in
// BENCH_candidate_gen.json (see bench_common.h for the schema).
//
// Flags: --smoke (tiny datasets for CI), --full (bigger budgets).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/renumber.h"
#include "util/random.h"

namespace kbiplex {
namespace bench {
namespace {

struct Workload {
  std::string name;
  size_t num_left;
  size_t num_right;
  size_t num_edges;
  uint64_t seed;
  int k;
  size_t theta;          // 0 = plain enumeration (2-hop gate disengaged)
  uint64_t max_results;  // first-N workload keeps runs bounded
};

struct Config {
  const char* name;
  bool renumbered;  // run on the degeneracy-renumbered copy
};

constexpr Config kConfigs[] = {
    {"full", false},
    {"full+renum", true},
};

void RunWorkload(const Workload& w, double budget_seconds,
                 BenchJsonWriter* json) {
  Rng rng(w.seed);
  BipartiteGraph indexed =
      ErdosRenyiBipartite(w.num_left, w.num_right, w.num_edges, &rng);
  indexed.BuildAdjacencyIndex();
  RenumberedGraph renum = RenumberByDegeneracy(indexed);

  std::printf("%s: %zux%zu, %zu edges, k=%d, theta=%zu, first %llu\n",
              w.name.c_str(), indexed.NumLeft(), indexed.NumRight(),
              indexed.NumEdges(), w.k, w.theta,
              static_cast<unsigned long long>(w.max_results));
  std::printf("  %-12s %10s %10s %12s %12s %14s %8s\n", "config",
              "seconds", "solutions", "cand_gen", "cand_pruned",
              "adj_tests", "speedup");

  double full_seconds = 0;
  uint64_t full_solutions = 0;
  bool full_completed = false;
  for (const Config& c : kConfigs) {
    EnumerateRequest req =
        MakeRequest("itraversal", w.k, w.max_results, budget_seconds);
    req.theta_left = w.theta;
    req.theta_right = w.theta;
    EnumerateStats stats =
        RunCounting(c.renumbered ? renum.graph : indexed, req);

    if (!c.renumbered) {
      full_seconds = stats.seconds;
      full_solutions = stats.solutions;
      full_completed = FinishedFirstN(stats, w.max_results);
    } else if (full_completed && FinishedFirstN(stats, w.max_results) &&
               stats.solutions != full_solutions) {
      // Renumbering permutes ids but never the solution count.
      std::fprintf(stderr,
                   "FATAL: %s/%s found %llu solutions, full found %llu\n",
                   w.name.c_str(), c.name,
                   static_cast<unsigned long long>(stats.solutions),
                   static_cast<unsigned long long>(full_solutions));
      std::abort();
    }
    const double speedup =
        stats.seconds > 0 ? full_seconds / stats.seconds : 0;
    if (!stats.traversal.has_value()) {
      // RunCounting aborts on rejected requests, so a missing detail
      // block means the backend wiring changed underneath the bench.
      std::fprintf(stderr, "FATAL: %s/%s returned no traversal stats\n",
                   w.name.c_str(), c.name);
      std::abort();
    }
    const TraversalStats& t = *stats.traversal;
    std::printf("  %-12s %10.3f %10llu %12llu %12llu %14llu %7.2fx\n",
                c.name, stats.seconds,
                static_cast<unsigned long long>(stats.solutions),
                static_cast<unsigned long long>(t.candidates_generated),
                static_cast<unsigned long long>(t.candidates_pruned),
                static_cast<unsigned long long>(
                    t.local_stats.adjacency_tests),
                speedup);

    std::string row = w.name + "/" + c.name;
    json->AddRun(row, w.name, req, stats);
    if (!c.renumbered) continue;
    json->Add([&] {
      BenchJsonWriter::Record r;
      r.name = row + "/speedup";
      r.dataset = w.name;
      r.algorithm = "itraversal";
      r.k_left = r.k_right = w.k;
      r.wall_seconds = stats.seconds;
      r.solutions = stats.solutions;
      r.completed = stats.completed;
      r.counters.emplace_back("speedup_vs_full", speedup);
      return r;
    }());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace kbiplex

int main(int argc, char** argv) {
  using namespace kbiplex::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const bool quick = QuickMode(argc, argv);
  const double budget = quick ? 120.0 : 600.0;

  std::vector<Workload> workloads;
  if (smoke) {
    workloads.push_back({"dense-smoke", 20, 20, 90, 41, 1, 3, 100});
    workloads.push_back({"plain-smoke", 16, 16, 60, 42, 1, 0, 100});
  } else {
    // The dense synthetic workload: average degree 60, size thresholds
    // above the budget so the 2-hop gate engages. First-N keeps the run
    // bounded (complete enumeration is combinatorial at this density).
    workloads.push_back(
        {"dense-large-mbp", 150, 150, 9000, 41, 1, 8, 200});
    // Plain full enumeration (gate disengaged): the bitset adjacency and
    // workspace/arena path alone.
    workloads.push_back({"dense-full-enum", 40, 40, 520, 42, 1, 0, 4000});
  }

  BenchJsonWriter json("candidate_gen");
  for (const Workload& w : workloads) RunWorkload(w, budget, &json);
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
