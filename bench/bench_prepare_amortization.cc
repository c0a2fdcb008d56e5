// Prepare/execute amortization benchmark: the cost of answering N queries
// over one graph through the one-shot Enumerate facade (every call
// rebuilds its adjacency index and rediscovers every artifact) versus one
// PreparedGraph::Prepare followed by N QuerySession executes (index built
// once, degeneracy renumbering applied once, engine scratch carried
// across queries).
//
// The workload is the dense synthetic large-MBP shape of
// bench_candidate_gen (scaled to keep the 10x one-shot loop laptop-fast):
// both paths run the identical request; the one-shot path builds a
// throwaway bitset adjacency index per call (an engine builds one
// whenever its graph has none attached) while the session path attaches
// one at prepare time — plus the renumbering win no one-shot call can
// access.
// Every run must deliver the same solution count; a mismatch aborts.
//
// Results print as a table and are recorded in
// BENCH_prepare_amortization.json; the session path's seconds INCLUDE the
// prepare, so the reported speedup is end-to-end honest.
//
// Flags: --smoke (tiny dataset for CI), --full (adds the 100-execute
// one-shot loop, which is slow by construction).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/timer.h"

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
  size_t theta;
  uint64_t max_results;
};

EnumerateRequest WorkloadRequest(const Workload& w) {
  EnumerateRequest req = MakeRequest("itraversal", w.k, w.max_results, 0);
  req.theta_left = w.theta;
  req.theta_right = w.theta;
  return req;
}

void RunWorkload(const Workload& w, const std::vector<uint64_t>& execute_counts,
                 BenchJsonWriter* json) {
  Rng rng(w.seed);
  const BipartiteGraph plain =
      ErdosRenyiBipartite(w.num_left, w.num_right, w.num_edges, &rng);
  const EnumerateRequest req = WorkloadRequest(w);

  std::printf("%s: %zux%zu, %zu edges, k=%d, theta=%zu, first %llu\n",
              w.name.c_str(), plain.NumLeft(), plain.NumRight(),
              plain.NumEdges(), w.k, w.theta,
              static_cast<unsigned long long>(w.max_results));
  std::printf("  %-10s %14s %14s %16s %8s\n", "executes", "one-shot (s)",
              "session (s)", "prepare (s)", "speedup");

  for (uint64_t n : execute_counts) {
    // N independent one-shot calls on the raw graph.
    WallTimer one_shot_timer;
    uint64_t one_shot_solutions = 0;
    for (uint64_t i = 0; i < n; ++i) {
      one_shot_solutions = RunCounting(plain, req).solutions;
    }
    const double one_shot_seconds = one_shot_timer.ElapsedSeconds();

    // One prepare + N session executes. The prepare (renumbering + index
    // attach) happens inside the timed region: the speedup charges the
    // session path its full setup cost.
    WallTimer session_timer;
    PrepareOptions prep;
    prep.renumber = true;
    auto prepared = PreparedGraph::Prepare(BipartiteGraph(plain), prep);
    prepared->Warmup();
    const double prepare_seconds = session_timer.ElapsedSeconds();
    QuerySession session(prepared);
    uint64_t session_solutions = 0;
    for (uint64_t i = 0; i < n; ++i) {
      EnumerateStats stats;
      session_solutions = session.Count(req, &stats);
      if (!stats.ok()) {
        std::fprintf(stderr, "FATAL: session run rejected: %s\n",
                     stats.error.c_str());
        std::abort();
      }
    }
    const double session_seconds = session_timer.ElapsedSeconds();

    if (session_solutions != one_shot_solutions) {
      // Renumbering permutes ids but never the solution count.
      std::fprintf(
          stderr, "FATAL: session found %llu solutions, one-shot %llu\n",
          static_cast<unsigned long long>(session_solutions),
          static_cast<unsigned long long>(one_shot_solutions));
      std::abort();
    }

    const double speedup =
        session_seconds > 0 ? one_shot_seconds / session_seconds : 0;
    std::printf("  %-10llu %14.3f %14.3f %16.3f %7.2fx\n",
                static_cast<unsigned long long>(n), one_shot_seconds,
                session_seconds, prepare_seconds, speedup);

    for (const char* path : {"one-shot", "session"}) {
      BenchJsonWriter::Record r;
      r.name = w.name + "/" + path + "/executes=" + std::to_string(n);
      r.dataset = w.name;
      r.algorithm = req.algorithm;
      r.k_left = r.k_right = w.k;
      r.wall_seconds = std::strcmp(path, "one-shot") == 0
                           ? one_shot_seconds
                           : session_seconds;
      r.solutions = one_shot_solutions;
      r.completed = true;
      if (std::strcmp(path, "session") == 0) {
        r.counters.emplace_back("prepare_seconds", prepare_seconds);
        r.counters.emplace_back("speedup_vs_one_shot", speedup);
      }
      json->Add(std::move(r));
    }
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

  Workload w;
  std::vector<uint64_t> execute_counts;
  if (smoke) {
    w = {"dense-smoke", 20, 20, 90, 41, 1, 3, 100};
    execute_counts = {1, 10};
  } else {
    // The dense large-MBP shape of bench_candidate_gen at a size where one
    // one-shot query costs a few hundred milliseconds, so the 10x one-shot
    // loop stays laptop-fast; --full adds the (slow by construction)
    // 100-execute one-shot loop.
    w = {"dense", 110, 110, 4840, 41, 1, 7, 150};
    execute_counts = quick ? std::vector<uint64_t>{1, 10}
                           : std::vector<uint64_t>{1, 10, 100};
  }

  BenchJsonWriter json("prepare_amortization");
  RunWorkload(w, execute_counts, &json);
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
