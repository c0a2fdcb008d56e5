// Shared infrastructure of the figure/table reproduction harness: the
// offline stand-ins for the paper's Table 1 datasets and small helpers for
// budgeted runs.
//
// The KONECT datasets are not available offline, so each is replaced by a
// seeded synthetic graph with the same bipartite shape; the larger ones are
// scaled down (column "scale") to keep the whole suite laptop-fast. See
// DESIGN.md ("Substitutions") and EXPERIMENTS.md for the mapping.
#ifndef KBIPLEX_BENCH_BENCH_COMMON_H_
#define KBIPLEX_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/enumerator.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {
namespace bench {

/// How a stand-in dataset is synthesized.
enum class DatasetKind {
  kErdosRenyi,      // dense small graphs (Divorce, Cfat)
  kPowerLaw,        // skewed sparse graphs (everything else)
};

/// One stand-in for a row of the paper's Table 1.
struct DatasetSpec {
  std::string name;      // the paper's dataset name
  std::string category;  // the paper's category column
  size_t num_left;
  size_t num_right;
  size_t num_edges;
  DatasetKind kind;
  double gamma_left = 3.0;   // user-side skew for kPowerLaw
  double gamma_right = 2.5;  // item-side skew for kPowerLaw
  uint64_t seed = 1;
  /// Denominator applied to the paper's original sizes (1 = full size).
  size_t scale = 1;
  /// The paper's original sizes, for the Table 1 printout.
  size_t paper_left = 0, paper_right = 0, paper_edges = 0;
};

/// The ten stand-ins mirroring Table 1 (Divorce .. Google).
std::vector<DatasetSpec> StandInDatasets();

/// Subset of StandInDatasets() used by the small-dataset experiments
/// (Figures 8 and 11): Divorce, Cfat, Crime, Opsahl.
std::vector<DatasetSpec> SmallDatasets();

/// Looks up a stand-in by paper name; aborts if unknown.
DatasetSpec FindDataset(const std::string& name);

/// Materializes the stand-in graph.
BipartiteGraph MakeDataset(const DatasetSpec& spec);

/// True if the benchmark should run in quick mode (default). Pass --full
/// on the command line for larger budgets.
bool QuickMode(int argc, char** argv);

/// Time budget per algorithm invocation in seconds.
double RunBudgetSeconds(bool quick);

/// Builds the request shape every figure harness uses: an algorithm name,
/// a uniform budget k, a result cap, and a wall-clock budget.
EnumerateRequest MakeRequest(const std::string& algorithm, int k,
                             uint64_t max_results, double budget_seconds);

/// Runs `request` on `g` through the facade, counting solutions without
/// materializing them. Aborts on rejected requests: a bench asking for an
/// impossible configuration is a bug in the bench.
EnumerateStats RunCounting(const BipartiteGraph& g,
                           const EnumerateRequest& request);

class BenchJsonWriter;

/// RunCounting plus a machine-readable record: the run is appended to
/// `writer` (see BenchJsonWriter::AddRun) under the row label `name` and
/// dataset `dataset`. The standard way a figure harness reports every cell
/// into its BENCH_*.json.
EnumerateStats RunCountingLogged(BenchJsonWriter* writer, std::string name,
                                 const std::string& dataset,
                                 const BipartiteGraph& g,
                                 const EnumerateRequest& request);

/// The paper's notion of a finished "first N MBPs" run: the enumeration
/// completed, or it stopped exactly because the result cap was reached.
bool FinishedFirstN(const EnumerateStats& stats, uint64_t max_results);

/// Formats a budgeted run the way the paper's tables mark outcomes:
/// "OUT" when inflation refused the memory blow-up, "INF" when the budget
/// expired before any output, the runtime otherwise ("*"-suffixed after
/// partial output).
std::string BudgetCell(const EnumerateStats& stats, uint64_t max_results);

/// Machine-readable benchmark results: accumulates per-run records and
/// writes them as `BENCH_<bench-name>.json` so the perf trajectory can be
/// tracked across commits. The output directory comes from the
/// KBIPLEX_BENCH_JSON_DIR environment variable (default: the working
/// directory). Schema:
///
///   {"bench": "<name>", "schema_version": 1,
///    "host": {"cores": 4, "cpu_model": "...", "simd": "avx2",
///             "build_type": "Release", "git_sha": "<sha or unknown>"},
///    "records": [
///     {"name": "...", "dataset": "...", "algorithm": "...",
///      "k_left": 1, "k_right": 1, "threads": 1,
///      "wall_seconds": 0.12, "solutions": 10, "work_units": 42,
///      "completed": true, "counters": {"adjacency_tests": 1234, ...}},
///     ...]}
class BenchJsonWriter {
 public:
  struct Record {
    std::string name;       // row label, e.g. "dense/itraversal/accel"
    std::string dataset;
    std::string algorithm;
    int k_left = 1;
    int k_right = 1;
    int threads = 1;
    double wall_seconds = 0;
    uint64_t solutions = 0;
    uint64_t work_units = 0;
    bool completed = true;
    /// Free-form numeric counters (stats counters, derived ratios, ...).
    std::vector<std::pair<std::string, double>> counters;
  };

  explicit BenchJsonWriter(std::string bench_name);

  /// Writes the file on destruction (best effort) unless Write() already
  /// ran.
  ~BenchJsonWriter();

  void Add(Record record);

  /// Convenience: builds a record from a facade run, pulling the shared
  /// stats fields plus the traversal acceleration counters when present.
  void AddRun(std::string name, const std::string& dataset,
              const EnumerateRequest& request, const EnumerateStats& stats);

  /// Destination path (directory resolved at construction).
  const std::string& path() const { return path_; }

  /// Writes the accumulated records; true on success.
  bool Write();

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<Record> records_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace kbiplex

#endif  // KBIPLEX_BENCH_BENCH_COMMON_H_
