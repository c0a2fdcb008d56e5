// The three benchmark workloads and the shared result record. A workload
// run is the measured process: it reads the generated inputs, drives the
// library through its public API, and writes its metrics (run.json), the
// data the separate check process needs (hashes*.bin, serve_check.txt)
// and, when traced, its spans (trace.json).
#ifndef KBENCH_WORKLOADS_H_
#define KBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "oracle.h"
#include "trace.h"

namespace kbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunConfig {
  std::string workload;
  std::string dir;  // work directory holding the generated inputs
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// Everything a measured run reports.
struct RunOutput {
  Metrics end_to_end;
  Metrics per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed operation/check
  /// Per-span-name totals of the traced run.
  std::map<std::string, Tracer::Totals> spans;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// Workload parameters of the two batch workloads.
struct BatchSpec {
  int graphs;  // input graphs graph0.txt, graph1.txt, ... run per repetition
  const char* algo;
  const char* reference_algo;  // a different registry backend
  int k;
  size_t theta;
  int setup_reps;    // timed setup samples; setup_s is their median
  int setup_passes;  // load + Prepare + Warmup passes per sample
};
const BatchSpec* FindBatchSpec(const std::string& workload);

/// Writes the workload's input files into config.dir.
bool GenerateInputs(const RunConfig& config);

void RunBatch(const RunConfig& config, const BatchSpec& spec, RunOutput* out);
void RunServe(const RunConfig& config, RunOutput* out);

/// Checks a finished run against references computed from the inputs;
/// returns the number of checks made and appends failures.
uint64_t CheckBatch(const RunConfig& config, const BatchSpec& spec,
                    std::vector<std::string>* failures);
uint64_t CheckServe(const RunConfig& config, std::vector<std::string>* failures);

/// Compares a run's solution set with a reference set; appends a line per
/// mismatch (count, duplicates, set hash). Shared by the checks and the
/// self-test.
void CompareSets(const char* what, const SolutionSet& run,
                 const SolutionSet& reference,
                 std::vector<std::string>* failures);

/// Self-test of the serve reply check: a loopback peer answers a stream
/// query with `lines` solution lines and a done line claiming `done`;
/// returns the serve client's check verdict (empty = passed).
std::string CheckFakeStreamReply(uint64_t lines, uint64_t done);

/// Lets the parent process sample /proc/<pid>/status: prints
/// "SAMPLE <tag>" on stdout and blocks until it answers on stdin.
void ResourceSample(const char* tag);

/// The library graph of an edge list (built without the library loader).
kbiplex::BipartiteGraph ToGraph(const EdgeList& g);

bool WriteText(const std::string& path, const std::string& text);

/// q-quantile (nearest rank) of `v`; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

/// Reads the number after the first `"key":` in a wire reply line.
bool FindNumber(const std::string& text, const std::string& key, double* out);

}  // namespace kbench

#endif  // KBENCH_WORKLOADS_H_
