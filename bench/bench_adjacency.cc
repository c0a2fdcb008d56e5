// Adjacency acceleration benchmark: the two perf claims of the SIMD +
// compressed-row work, measured end to end.
//
//  1. Kernel speedup — the runtime-dispatched native SIMD table
//     (util/simd.h) versus the portable scalar table on IntersectCount
//     and RowConnCount over rows of >= 4096 bits. On an AVX2 host the
//     native table must win by >= 2x; on a host without vector units the
//     tables are the same and the ratio prints as ~1.
//
//  2. Compressed rows — a memory-budgeted AdjacencyIndex (roaring-style
//     dense/sparse hybrid) on a sparse workload must fit in <= 50% of the
//     all-dense index's bytes while the enumeration delivers the
//     *identical* solution set. The bench collects both solution sets in
//     canonical order and aborts on any difference: compression is a
//     memory knob, never a semantics knob.
//
// Results print as tables and are recorded in BENCH_adjacency.json
// (KBIPLEX_BENCH_JSON_DIR selects the directory). Quick mode is the
// default; pass --full for the larger graph and longer kernel loops.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/enumerator.h"
#include "bench_common.h"
#include "graph/adjacency_index.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"

namespace kbiplex {
namespace bench {
namespace {

std::vector<uint64_t> RandomWords(size_t n, Rng* rng) {
  std::vector<uint64_t> w(n);
  for (uint64_t& x : w) x = rng->Next();
  return w;
}

/// Times `reps` indirect calls of a kernel loop and returns seconds.
/// The checksum defeats dead-code elimination and doubles as an
/// agreement check between the two tables.
template <typename Fn>
double TimeLoop(size_t reps, uint64_t* checksum, Fn&& body) {
  WallTimer timer;
  uint64_t sum = 0;
  for (size_t i = 0; i < reps; ++i) sum += body();
  *checksum += sum;
  return timer.ElapsedSeconds();
}

void RecordKernel(BenchJsonWriter* json, const std::string& kernel,
                  size_t bits, const char* table, double seconds,
                  size_t reps, double speedup) {
  BenchJsonWriter::Record r;
  r.name = "simd/" + kernel + "/bits=" + std::to_string(bits) + "/" + table;
  r.dataset = "synthetic-words";
  r.algorithm = table;
  r.wall_seconds = seconds;
  r.work_units = reps;
  r.counters.emplace_back("bits", static_cast<double>(bits));
  if (speedup > 0) r.counters.emplace_back("speedup_vs_scalar", speedup);
  json->Add(std::move(r));
}

/// Workload sizes for the three tiers: --smoke (CI), quick (default),
/// --full.
struct BenchScale {
  size_t kernel_work;    // total words touched per kernel timing loop
  size_t graph_n;        // per-side vertices of the compressed workload
  uint64_t max_results;  // enumeration safety cap
};

void RunKernelBench(const BenchScale& scale, BenchJsonWriter* json) {
  const simd::Kernels& scalar = simd::Scalar();
  const simd::Kernels& native = simd::Native();
  std::printf("SIMD kernels: native table '%s'%s vs scalar\n", native.name,
              simd::ForcedScalar() ? " (KBIPLEX_FORCE_SCALAR active)" : "");
  std::printf("  %-22s %10s %14s %14s %8s\n", "kernel", "bits",
              "scalar (s)", "native (s)", "speedup");

  Rng rng(91);
  uint64_t checksum = 0;
  const size_t work = scale.kernel_work;
  for (size_t bits : {size_t{4096}, size_t{65536}}) {
    const size_t words = bits / 64;
    const std::vector<uint64_t> a = RandomWords(words, &rng);
    const std::vector<uint64_t> b = RandomWords(words, &rng);

    // IntersectCount: `reps` full-row AND+popcount sweeps per table.
    size_t reps = work / words;
    double ss = TimeLoop(reps, &checksum, [&] {
      return scalar.intersect_count(a.data(), b.data(), words);
    });
    double ns = TimeLoop(reps, &checksum, [&] {
      return native.intersect_count(a.data(), b.data(), words);
    });
    double speedup = ns > 0 ? ss / ns : 0;
    std::printf("  %-22s %10zu %14.3f %14.3f %7.2fx\n", "intersect_count",
                bits, ss, ns, speedup);
    RecordKernel(json, "intersect_count", bits, "scalar", ss, reps, 0);
    RecordKernel(json, "intersect_count", bits, "native", ns, reps, speedup);

    // RowConnCount: gather+test over a half-universe subset of probes.
    const std::vector<uint64_t> sample = rng.SampleDistinct(bits, bits / 2);
    const std::vector<uint32_t> subset(sample.begin(), sample.end());
    reps = work / subset.size();
    ss = TimeLoop(reps, &checksum, [&] {
      return scalar.row_conn_count(a.data(), subset.data(), subset.size());
    });
    ns = TimeLoop(reps, &checksum, [&] {
      return native.row_conn_count(a.data(), subset.data(), subset.size());
    });
    speedup = ns > 0 ? ss / ns : 0;
    std::printf("  %-22s %10zu %14.3f %14.3f %7.2fx\n", "row_conn_count",
                bits, ss, ns, speedup);
    RecordKernel(json, "row_conn_count", bits, "scalar", ss, reps, 0);
    RecordKernel(json, "row_conn_count", bits, "native", ns, reps, speedup);
  }
  std::printf("  (checksum %llu)\n\n",
              static_cast<unsigned long long>(checksum));
}

/// One timed enumeration returning the canonical solution set.
std::vector<Biplex> TimedRun(const BipartiteGraph& g,
                             const EnumerateRequest& req, double* seconds,
                             EnumerateStats* stats) {
  CollectingSink sink(/*sorted=*/true);
  WallTimer timer;
  *stats = Enumerate(g, req, &sink);
  *seconds = timer.ElapsedSeconds();
  if (!stats->ok()) {
    std::fprintf(stderr, "FATAL: run rejected: %s\n", stats->error.c_str());
    std::abort();
  }
  return sink.Take();
}

void RunCompressedBench(const BenchScale& scale, BenchJsonWriter* json) {
  // Sparse workload: a wide, low-degree random graph. A dense row over a
  // multi-thousand-vertex opposite side costs hundreds of bytes; the same
  // row as a sorted id run costs tens — the regime the budget planner is
  // built for.
  const size_t n = scale.graph_n;
  const size_t edges = n * 8;
  Rng rng(92);
  const BipartiteGraph base = ErdosRenyiBipartite(n, n, edges, &rng);

  BipartiteGraph dense_g(base);
  dense_g.BuildAdjacencyIndex();
  const AdjacencyIndex* dense_index = dense_g.adjacency_index();
  const size_t dense_bytes = dense_index->MemoryBytes();
  if (dense_bytes == 0) {
    std::fprintf(stderr, "FATAL: dense index indexed no rows\n");
    std::abort();
  }

  BipartiteGraph comp_g(base);
  comp_g.BuildAdjacencyIndex(AdjacencyIndex::kAutoThreshold,
                             dense_bytes / 2);
  const AdjacencyIndex* comp_index = comp_g.adjacency_index();
  const size_t comp_bytes = comp_index->MemoryBytes();
  const AdjacencyIndex::RepresentationStats& rep =
      comp_index->representation_stats();
  const double ratio = static_cast<double>(comp_bytes) /
                       static_cast<double>(dense_bytes);

  std::printf("compressed rows: %zux%zu, %zu edges, budget = dense/2\n", n,
              n, base.NumEdges());
  std::printf("  %-12s %14s %12s %12s %12s\n", "index", "bytes", "dense",
              "sparse", "dropped");
  const AdjacencyIndex::RepresentationStats& dense_rep =
      dense_index->representation_stats();
  std::printf("  %-12s %14zu %12zu %12zu %12zu\n", "all-dense", dense_bytes,
              dense_rep.dense_rows, dense_rep.sparse_rows,
              dense_rep.dropped_rows);
  std::printf("  %-12s %14zu %12zu %12zu %12zu   (%.1f%% of dense)\n",
              "budgeted", comp_bytes, rep.dense_rows, rep.sparse_rows,
              rep.dropped_rows, 100.0 * ratio);
  if (ratio > 0.5) {
    std::fprintf(stderr, "FATAL: budgeted index used %.1f%% of dense\n",
                 100.0 * ratio);
    std::abort();
  }

  // Identical solution sets through the facade, dense vs budgeted index.
  EnumerateRequest req = MakeRequest("itraversal", 1, scale.max_results, 0);
  req.theta_left = 3;
  req.theta_right = 3;
  double dense_seconds = 0, comp_seconds = 0;
  EnumerateStats dense_stats, comp_stats;
  const std::vector<Biplex> dense_solutions =
      TimedRun(dense_g, req, &dense_seconds, &dense_stats);
  const std::vector<Biplex> comp_solutions =
      TimedRun(comp_g, req, &comp_seconds, &comp_stats);
  if (dense_solutions != comp_solutions) {
    std::fprintf(stderr,
                 "FATAL: solution sets differ (dense %zu, budgeted %zu)\n",
                 dense_solutions.size(), comp_solutions.size());
    std::abort();
  }
  std::printf("  enumeration: %zu solutions; dense %.3fs, budgeted %.3fs "
              "(identical sets)\n\n",
              dense_solutions.size(), dense_seconds, comp_seconds);

  for (const char* variant : {"all-dense", "budgeted"}) {
    const bool is_dense = std::string(variant) == "all-dense";
    BenchJsonWriter::Record r;
    r.name = std::string("compressed/") + variant;
    r.dataset = "er-sparse-" + std::to_string(n);
    r.algorithm = req.algorithm;
    r.k_left = r.k_right = 1;
    r.wall_seconds = is_dense ? dense_seconds : comp_seconds;
    r.solutions = dense_solutions.size();
    r.completed = true;
    r.counters.emplace_back("index_bytes", static_cast<double>(
                                               is_dense ? dense_bytes
                                                        : comp_bytes));
    if (!is_dense) {
      r.counters.emplace_back("bytes_ratio_vs_dense", ratio);
      r.counters.emplace_back("sparse_rows",
                              static_cast<double>(rep.sparse_rows));
      r.counters.emplace_back("dropped_rows",
                              static_cast<double>(rep.dropped_rows));
    }
    json->Add(std::move(r));
  }
}

}  // namespace
}  // namespace bench
}  // namespace kbiplex

int main(int argc, char** argv) {
  using namespace kbiplex::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const bool quick = QuickMode(argc, argv);
  BenchScale scale;
  if (smoke) {
    scale = {size_t{1} << 22, 300, 2000};
  } else if (quick) {
    scale = {size_t{1} << 24, 1200, 20000};
  } else {
    scale = {size_t{1} << 27, 3000, 100000};
  }
  BenchJsonWriter json("adjacency");
  RunKernelBench(scale, &json);
  RunCompressedBench(scale, &json);
  if (!json.Write()) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 json.path().c_str());
  }
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
