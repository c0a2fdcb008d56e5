// Batch workloads (`communities`, `dense-full`) and the helpers shared
// with the serve workload.
#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "api/solution_sink.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_io.h"

namespace kbench {

using kbiplex::Biplex;
using kbiplex::EnumerateRequest;
using kbiplex::EnumerateStats;
using kbiplex::PreparedGraph;
using kbiplex::QuerySession;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const BatchSpec kCommunities{1, "large-mbp", "itraversal", 1, 9, 5, 1};
// Eight graphs per repetition: the sum of eight independent instances
// varies across seeds far less than one. One setup pass of the eight
// takes well under a millisecond, so a sample times 100 passes.
const BatchSpec kDenseFull{8, "itraversal", "itraversal-es", 1, 0, 15, 100};
constexpr uint32_t kDenseFullSide = 16;

/// The benchmark's sink: keeps one 8-byte hash per solution for the check
/// process and the output timestamps for the delay metrics. With tracing
/// on it also records every inter-output gap and its own time, reported
/// as a count plus a total (no span per solution).
class BenchSink final : public kbiplex::SolutionSink {
 public:
  BenchSink(bool trace, double start)
      : trace_(trace), start_(start), last_(start) {}

  bool Accept(const Biplex& b) override {
    const double now = NowSeconds();
    const double gap = now - last_;
    if (calls_ == 0) first_ = now;
    max_gap_ = std::max(max_gap_, gap);
    last_ = now;
    set_.hashes.push_back(SolutionHash(b.left.data(), b.left.size(),
                                       b.right.data(), b.right.size()));
    ++calls_;
    if (trace_) {
      gaps_.push_back(gap);
      self_s_ += NowSeconds() - now;
    }
    return true;
  }

  uint64_t calls() const { return calls_; }
  /// Start to first output (the whole run when nothing was output).
  double FirstOutput(double end) const {
    return (calls_ == 0 ? end : first_) - start_;
  }
  /// The paper's delay: largest of start->first, any gap, last->end.
  double MaxDelay(double end) const { return std::max(max_gap_, end - last_); }
  double self_s() const { return self_s_; }
  std::vector<double>& gaps() { return gaps_; }
  SolutionSet& set() { return set_; }

 private:
  const bool trace_;
  const double start_;
  double first_ = 0;
  double last_;
  double max_gap_ = 0;
  uint64_t calls_ = 0;
  double self_s_ = 0;
  std::vector<double> gaps_;
  SolutionSet set_;
};

const kbiplex::TraversalStats* TraversalOf(const EnumerateStats& stats) {
  if (stats.traversal.has_value()) return &*stats.traversal;
  if (stats.large_mbp.has_value()) return &stats.large_mbp->traversal;
  return nullptr;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

void Put(Metrics* m, const std::string& name, double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

/// The subgraph induced by the vertices of degree >= `min_degree` after
/// iterated removal, with compacted ids; `*_ids` map them back.
EdgeList PeelToCore(const EdgeList& g, size_t min_degree,
                    std::vector<uint32_t>* left_ids,
                    std::vector<uint32_t>* right_ids) {
  std::vector<size_t> deg_l(g.num_left, 0), deg_r(g.num_right, 0);
  for (const Edge& e : g.edges) {
    ++deg_l[e.l];
    ++deg_r[e.r];
  }
  std::vector<uint8_t> gone_l(g.num_left, 0), gone_r(g.num_right, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t v = 0; v < g.num_left; ++v) {
      if (!gone_l[v] && deg_l[v] < min_degree) gone_l[v] = changed = true;
    }
    for (size_t v = 0; v < g.num_right; ++v) {
      if (!gone_r[v] && deg_r[v] < min_degree) gone_r[v] = changed = true;
    }
    std::fill(deg_l.begin(), deg_l.end(), 0);
    std::fill(deg_r.begin(), deg_r.end(), 0);
    for (const Edge& e : g.edges) {
      if (gone_l[e.l] || gone_r[e.r]) continue;
      ++deg_l[e.l];
      ++deg_r[e.r];
    }
  }
  std::vector<uint32_t> new_l(g.num_left), new_r(g.num_right);
  left_ids->clear();
  right_ids->clear();
  for (uint32_t v = 0; v < g.num_left; ++v) {
    if (gone_l[v]) continue;
    new_l[v] = static_cast<uint32_t>(left_ids->size());
    left_ids->push_back(v);
  }
  for (uint32_t v = 0; v < g.num_right; ++v) {
    if (gone_r[v]) continue;
    new_r[v] = static_cast<uint32_t>(right_ids->size());
    right_ids->push_back(v);
  }
  EdgeList core;
  core.num_left = left_ids->size();
  core.num_right = right_ids->size();
  for (const Edge& e : g.edges) {
    if (!gone_l[e.l] && !gone_r[e.r]) core.edges.push_back({new_l[e.l], new_r[e.r]});
  }
  return core;
}

double FileMb(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) / 1e6
                                      : 0;
}

}  // namespace

kbiplex::BipartiteGraph ToGraph(const EdgeList& g) {
  std::vector<kbiplex::BipartiteGraph::Edge> edges;
  edges.reserve(g.edges.size());
  for (const Edge& e : g.edges) edges.emplace_back(e.l, e.r);
  return kbiplex::BipartiteGraph::FromEdges(g.num_left, g.num_right,
                                            std::move(edges));
}

bool WriteText(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return v[rank];
}

bool FindNumber(const std::string& text, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const char* begin = text.c_str() + pos + needle.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

void ResourceSample(const char* tag) {
  std::cout << "SAMPLE " << tag << std::endl;
  std::string ack;
  std::getline(std::cin, ack);
}

void CompareSets(const char* what, const SolutionSet& run,
                 const SolutionSet& reference,
                 std::vector<std::string>* failures) {
  const std::string w = what;
  if (run.hashes.size() != reference.hashes.size()) {
    failures->push_back(w + ": " + std::to_string(run.hashes.size()) +
                        " solutions, reference has " +
                        std::to_string(reference.hashes.size()));
  }
  if (run.Duplicates() != 0) {
    failures->push_back(w + ": " + std::to_string(run.Duplicates()) +
                        " repeated solutions");
  }
  if (run.SetHash() != reference.SetHash() || !(run == reference)) {
    failures->push_back(w + ": solution set differs from the reference");
  }
}

const BatchSpec* FindBatchSpec(const std::string& workload) {
  if (workload == "communities") return &kCommunities;
  if (workload == "dense-full") return &kDenseFull;
  return nullptr;
}

std::string GraphFile(const RunConfig& config, int i) {
  return config.dir + "/graph" + std::to_string(i) + ".txt";
}

std::string HashFile(const RunConfig& config, int i) {
  return config.dir + "/hashes" + std::to_string(i) + ".bin";
}

bool GenerateInputs(const RunConfig& config) {
  if (config.workload == "communities")
    return WriteEdgeList(CommunitiesGraph(config.seed), GraphFile(config, 0));
  if (config.workload == "dense-full") {
    for (int i = 0; i < kDenseFull.graphs; ++i) {
      if (!WriteEdgeList(DenseGraph(Mix64(config.seed) + i, kDenseFullSide),
                         GraphFile(config, i))) {
        return false;
      }
    }
    return true;
  }
  if (config.workload == "serve-mixed")
    return WriteEdgeList(DenseGraph(config.seed, 22), config.dir + "/dense.txt") &&
           WriteEdgeList(CommGraph(config.seed), config.dir + "/comm.txt");
  return false;
}

void RunBatch(const RunConfig& config, const BatchSpec& spec, RunOutput* out) {
  Tracer tracer(config.trace);
  const int n = spec.graphs;

  // ---- setup: load + Prepare + Warmup of every graph, repeated; each
  // sample times spec.setup_passes passes and reports the time per pass.
  // The last pass is kept.
  std::vector<double> setup_s, load_s, exec_s, comp_s, core_s;
  std::vector<std::shared_ptr<const PreparedGraph>> prepared(n);
  const double passes = spec.setup_passes;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const double t0 = NowSeconds();
    double load = 0, exec = 0, comp = 0, core = 0;
    for (int pass = 0; pass < spec.setup_passes; ++pass) {
      for (auto& p : prepared) p.reset();
      ScopedSpan setup_span(&tracer, "setup");
      for (int i = 0; i < n; ++i) {
        double t = NowSeconds();
        kbiplex::LoadResult loaded;
        {
          ScopedSpan span(&tracer, "graph.load");
          loaded = kbiplex::LoadEdgeList(GraphFile(config, i));
        }
        load += NowSeconds() - t;
        if (!loaded.ok()) {
          out->Fail("load: " + loaded.error);
          return;
        }
        {
          ScopedSpan span(&tracer, "api.prepare");
          prepared[i] = PreparedGraph::Prepare(std::move(*loaded.graph));
        }
        if (config.trace) {
          // The first call of each artifact accessor, timed apart; Warmup
          // below then finds every artifact built.
          t = NowSeconds();
          {
            ScopedSpan span(&tracer, "api.exec_graph");
            prepared[i]->ExecutionGraph();
          }
          exec += NowSeconds() - t;
          t = NowSeconds();
          {
            ScopedSpan span(&tracer, "api.components");
            prepared[i]->Components();
          }
          comp += NowSeconds() - t;
          t = NowSeconds();
          {
            ScopedSpan span(&tracer, "api.core_bound");
            prepared[i]->MaxUniformCore();
          }
          core += NowSeconds() - t;
        }
        ScopedSpan span(&tracer, "api.warmup");
        prepared[i]->Warmup();
      }
    }
    setup_s.push_back((NowSeconds() - t0) / passes);
    load_s.push_back(load / passes);
    exec_s.push_back(exec / passes);
    comp_s.push_back(comp / passes);
    core_s.push_back(core / passes);
  }

  // ---- enumeration: each repetition runs every graph to completion;
  // repetition 0 warms up untimed, then repetitions continue while the
  // measured time lasts.
  EnumerateRequest request;
  request.algorithm = spec.algo;
  request.k = kbiplex::KPair::Uniform(spec.k);
  request.theta_left = request.theta_right = spec.theta;
  request.threads = 1;
  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (const auto& p : prepared) sessions.push_back(std::make_unique<QuerySession>(p));
  std::vector<double> enum_s, query_s, first_s, delay_s, core_self_s, sink_s;
  std::vector<double> gaps;
  uint64_t sink_calls = 0;
  std::vector<SolutionSet> first_sets(n);
  std::vector<EnumerateStats> stats(n);
  double loop_start = NowSeconds();
  for (int rep = 0;; ++rep) {
    double total = 0, first = 0, delay = 0, sink_time = 0;
    sink_calls = 0;
    gaps.clear();
    for (int i = 0; i < n; ++i) {
      ++out->attempted;
      const std::string what =
          "run " + std::to_string(rep) + " graph " + std::to_string(i) + ": ";
      const double t0 = NowSeconds();
      BenchSink sink(config.trace, t0);
      {
        ScopedSpan span(&tracer, "api.query_session.run",
                        static_cast<uint64_t>(rep * n + i + 1));
        stats[i] = sessions[i]->Run(request, &sink);
      }
      const double t1 = NowSeconds();
      total += t1 - t0;
      if (rep > 0) query_s.push_back(t1 - t0);
      if (i == 0) first = sink.FirstOutput(t1);
      delay = std::max(delay, sink.MaxDelay(t1));
      sink_time += sink.self_s();
      sink_calls += sink.calls();
      gaps.insert(gaps.end(), sink.gaps().begin(), sink.gaps().end());
      sink.set().Finish();
      if (!stats[i].ok() || !stats[i].completed) {
        out->Fail(what + (stats[i].ok() ? std::string("incomplete") : stats[i].error));
      } else if (stats[i].solutions != sink.calls()) {
        out->Fail(what + "stats report " + std::to_string(stats[i].solutions) +
                  " solutions, sink saw " + std::to_string(sink.calls()));
      } else if (rep == 0) {
        first_sets[i] = std::move(sink.set());
      } else if (!(sink.set() == first_sets[i])) {
        out->Fail(what + "solution set differs from run 0");
      }
    }
    if (rep == 0) {
      loop_start = NowSeconds();
      continue;
    }
    enum_s.push_back(total);
    first_s.push_back(first);
    delay_s.push_back(delay);
    core_self_s.push_back(total - sink_time);
    sink_s.push_back(sink_time);
    if (NowSeconds() - loop_start + Median(enum_s) > config.seconds) break;
  }
  for (int i = 0; i < n; ++i) {
    if (!WriteHashes(first_sets[i], HashFile(config, i)))
      out->Fail("cannot write " + HashFile(config, i));
  }

  // ---- metrics. The host's speed changes by up to 1.8x for tens of
  // seconds at a time; the 90th percentile of many short samples repeats
  // across runs where their median and their maximum do not (README,
  // Noise).
  Metrics& e2e = out->end_to_end;
  const double enum_p90 = Quantile(enum_s, 0.9);
  Put(&e2e, "setup_s", Median(setup_s), "s");
  Put(&e2e, "enum_s", enum_p90, "s");
  Put(&e2e, "requests_per_s", n / enum_p90, "1/s");
  Put(&e2e, "query_p90_ms", Quantile(query_s, 0.9) * 1e3, "ms");

  Metrics& layer = out->per_layer;
  Put(&layer, "enum_samples", static_cast<double>(enum_s.size()), "count");
  Put(&layer, "query_p50_ms", Median(query_s) * 1e3, "ms");
  Put(&layer, "query_p99_ms", Quantile(query_s, 0.99) * 1e3, "ms");
  Put(&layer, "first_output_s", Median(first_s), "s");
  Put(&layer, "max_delay_s", Median(delay_s), "s");
  Put(&layer, "graph.load_s", Median(load_s), "s");
  double file_mb = 0;
  for (int i = 0; i < n; ++i) file_mb += FileMb(GraphFile(config, i));
  Put(&layer, "graph.file_mb", file_mb, "MB");
  Put(&layer, "api.exec_graph_s", Median(exec_s), "s");
  Put(&layer, "api.components_s", Median(comp_s), "s");
  Put(&layer, "api.core_bound_s", Median(core_s), "s");
  // Counters are summed over the graphs (the stack depth is the maximum).
  kbiplex::PrepareArtifactStats art;
  double components = 0;
  kbiplex::TraversalStats t;
  uint64_t work_units = 0, solutions = 0, reduced_left = 0, reduced_right = 0;
  for (int i = 0; i < n; ++i) {
    const kbiplex::PrepareArtifactStats a = prepared[i]->artifact_stats();
    art.build_seconds += a.build_seconds;
    art.adjacency_memory_bytes += a.adjacency_memory_bytes;
    art.adjacency_dense_rows += a.adjacency_dense_rows;
    art.adjacency_sparse_rows += a.adjacency_sparse_rows;
    components += prepared[i]->Components().num_components;
    work_units += stats[i].work_units;
    solutions += stats[i].solutions;
    if (stats[i].large_mbp) {
      reduced_left += stats[i].large_mbp->core_left;
      reduced_right += stats[i].large_mbp->core_right;
    }
    if (const kbiplex::TraversalStats* s = TraversalOf(stats[i])) {
      t.almost_sat_graphs += s->almost_sat_graphs;
      t.local_solutions += s->local_solutions;
      t.candidates_generated += s->candidates_generated;
      t.candidates_pruned += s->candidates_pruned;
      t.local_stats.adjacency_tests += s->local_stats.adjacency_tests;
      t.links_pruned_exclusion += s->links_pruned_exclusion;
      t.links_pruned_right_shrinking += s->links_pruned_right_shrinking;
      t.links += s->links;
      t.dedup_hits += s->dedup_hits;
      t.max_stack_depth = std::max(t.max_stack_depth, s->max_stack_depth);
    }
  }
  Put(&layer, "api.artifact_build_s", art.build_seconds, "s");
  Put(&layer, "api.adjacency_bytes", static_cast<double>(art.adjacency_memory_bytes), "bytes");
  Put(&layer, "api.adjacency_dense_rows", static_cast<double>(art.adjacency_dense_rows), "count");
  Put(&layer, "api.adjacency_sparse_rows", static_cast<double>(art.adjacency_sparse_rows), "count");
  Put(&layer, "api.components", components, "count");
  Put(&layer, "core.work_units", static_cast<double>(work_units), "count");
  Put(&layer, "core.solutions", static_cast<double>(solutions), "count");
  Put(&layer, "core.almost_sat_graphs", static_cast<double>(t.almost_sat_graphs), "count");
  Put(&layer, "core.local_solutions", static_cast<double>(t.local_solutions), "count");
  Put(&layer, "core.candidates_generated", static_cast<double>(t.candidates_generated), "count");
  Put(&layer, "core.candidates_pruned", static_cast<double>(t.candidates_pruned), "count");
  Put(&layer, "core.adjacency_tests", static_cast<double>(t.local_stats.adjacency_tests), "count");
  Put(&layer, "core.links_pruned_exclusion", static_cast<double>(t.links_pruned_exclusion), "count");
  Put(&layer, "core.links_pruned_right_shrinking", static_cast<double>(t.links_pruned_right_shrinking), "count");
  Put(&layer, "core.max_stack_depth", static_cast<double>(t.max_stack_depth), "count");
  Put(&layer, "core.reduced_left", static_cast<double>(reduced_left), "count");
  Put(&layer, "core.reduced_right", static_cast<double>(reduced_right), "count");
  Put(&layer, "core.candidate_keep_ratio",
      t.candidates_generated == 0
          ? 0
          : static_cast<double>(t.candidates_generated - t.candidates_pruned) /
                static_cast<double>(t.candidates_generated),
      "ratio");
  Put(&layer, "core.dedup_ratio",
      t.links == 0 ? 0
                   : static_cast<double>(t.dedup_hits) / static_cast<double>(t.links),
      "ratio");
  Put(&layer, "core.self_s", Median(core_self_s), "s");
  Put(&layer, "core.delay_p50_s", Quantile(gaps, 0.5), "s");
  Put(&layer, "core.delay_p99_s", Quantile(gaps, 0.99), "s");
  Put(&layer, "sink.calls", static_cast<double>(sink_calls), "count");
  Put(&layer, "sink.s", Median(sink_s), "s");

  out->spans = tracer.Summary();
  if (config.trace && !tracer.Write(config.dir + "/trace.json"))
    out->Fail("cannot write trace.json");
}

uint64_t CheckBatch(const RunConfig& config, const BatchSpec& spec,
                    std::vector<std::string>* failures) {
  uint64_t checks = 0;
  for (int i = 0; i < spec.graphs; ++i) {
    const std::string what = std::string(spec.algo) + " graph " + std::to_string(i);
    EdgeList g;
    SolutionSet run;
    if (!ReadEdgeList(GraphFile(config, i), &g) ||
        !ReadHashes(HashFile(config, i), &run)) {
      failures->push_back(what + ": cannot read the graph or its hashes");
      ++checks;
      continue;
    }
    // The reference: a different registry backend over a graph built from
    // the benchmark's own edge list (not the library's loader), reduced to
    // its (theta-k)-core by the benchmark's own peel. Every maximal
    // k-biplex with both sides >= theta lies in that core, and is maximal
    // there iff it is maximal in the whole graph (a vertex that could join
    // it has >= theta-k neighbours inside it, so it is in the core too).
    std::vector<uint32_t> left_ids, right_ids;
    const EdgeList core = PeelToCore(
        g, spec.theta > static_cast<size_t>(spec.k) ? spec.theta - spec.k : 0,
        &left_ids, &right_ids);
    auto prepared = PreparedGraph::Prepare(ToGraph(core));
    QuerySession session(prepared);
    EnumerateRequest request;
    request.algorithm = spec.reference_algo;
    request.k = kbiplex::KPair::Uniform(spec.k);
    request.theta_left = request.theta_right = spec.theta;
    Oracle oracle(g);
    SolutionSet reference;
    uint64_t bad = 0;
    std::vector<uint32_t> left, right;
    EnumerateStats stats = session.Run(request, [&](const Biplex& b) {
      left.clear();
      right.clear();
      for (uint32_t v : b.left) left.push_back(left_ids[v]);
      for (uint32_t v : b.right) right.push_back(right_ids[v]);
      reference.hashes.push_back(
          SolutionHash(left.data(), left.size(), right.data(), right.size()));
      ++checks;
      const std::string why =
          oracle.Check(left, right, spec.k, spec.theta, spec.theta);
      if (!why.empty() && ++bad <= 5)
        failures->push_back(what + ": reference solution " + why);
      return true;
    });
    if (!stats.ok() || !stats.completed)
      failures->push_back(what + ": reference run failed: " + stats.error);
    reference.Finish();
    if (reference.Duplicates() != 0)
      failures->push_back(what + ": reference repeats solutions");
    CompareSets(what.c_str(), run, reference, failures);
    ++checks;
  }
  return checks;
}

}  // namespace kbench
