#include "api/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/prepared_graph.h"
#include "baselines/imb.h"
#include "core/brute_force.h"
#include "core/traversal_options.h"
#include "graph/components.h"
#include "graph/core_decomposition.h"
#include "util/cancellation.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kbiplex {
namespace internal {
namespace {

// --------------------------------------------------- shared delivery ---

/// The workers' shared delivery point: serializes sink access, counts
/// delivered solutions with an atomic, and turns a global stop condition
/// (result cap, sink refusal) into a cancellation visible to every worker.
class SharedDelivery {
 public:
  SharedDelivery(const EnumerateRequest& request, SolutionSink* sink,
                 CancellationToken* stop)
      : request_(request), sink_(sink), stop_(stop) {}

  /// Thread-safe Deliver with the same semantics as the sequential
  /// facade: threshold filter, then sink, then the result cap; a solution
  /// counts as delivered only once the sink accepted it.
  bool Deliver(const Biplex& b) {
    if (b.left.size() < request_.theta_left ||
        b.right.size() < request_.theta_right) {
      return true;
    }
    MutexLock lock(&mu_);
    if (stopped_) return false;
    if (!sink_->Accept(b)) {
      Stop();
      return false;
    }
    const uint64_t n = delivered_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (request_.max_results != 0 && n >= request_.max_results) {
      Stop();
      return false;
    }
    return true;
  }

  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  void Stop() KBIPLEX_REQUIRES(mu_) {
    stopped_ = true;
    stop_->Cancel();
  }

  const EnumerateRequest& request_;
  SolutionSink* const sink_ KBIPLEX_PT_GUARDED_BY(mu_);
  CancellationToken* const stop_;  // CancellationToken is atomic
  Mutex mu_;
  std::atomic<uint64_t> delivered_{0};
  bool stopped_ KBIPLEX_GUARDED_BY(mu_) = false;
};

/// Collects the first error raised by any worker (engine rejection or a
/// propagated exception; engines do not throw in normal operation).
class ErrorCollector {
 public:
  void Record(const std::string& error) {
    if (error.empty()) return;
    MutexLock lock(&mu_);
    if (error_.empty()) error_ = error;
  }

  std::string Take() {
    MutexLock lock(&mu_);
    return error_;
  }

 private:
  Mutex mu_;
  std::string error_ KBIPLEX_GUARDED_BY(mu_);
};

/// Adds worker-local traversal counters into an accumulator. `completed`
/// holds iff every contribution completed; `seconds` add up (aggregate
/// worker time, not wall clock); stack depths take the maximum.
void MergeInto(TraversalStats* into, const TraversalStats& s) {
  into->solutions_found += s.solutions_found;
  into->solutions_emitted += s.solutions_emitted;
  into->links += s.links;
  into->links_pruned_right_shrinking += s.links_pruned_right_shrinking;
  into->links_pruned_exclusion += s.links_pruned_exclusion;
  into->almost_sat_graphs += s.almost_sat_graphs;
  into->local_solutions += s.local_solutions;
  into->dedup_hits += s.dedup_hits;
  into->candidates_generated += s.candidates_generated;
  into->candidates_pruned += s.candidates_pruned;
  into->local_stats.b_subsets += s.local_stats.b_subsets;
  into->local_stats.a_subsets += s.local_stats.a_subsets;
  into->local_stats.local_solutions += s.local_stats.local_solutions;
  into->local_stats.adjacency_tests += s.local_stats.adjacency_tests;
  into->completed = into->completed && s.completed;
  into->seconds += s.seconds;  // aggregate worker time, not wall clock
  into->max_stack_depth = std::max(into->max_stack_depth, s.max_stack_depth);
}

/// The time budget is global: a shard dequeued late must not restart the
/// clock, so each one gets the budget *remaining* on the driver's timer
/// when it actually starts. Returns false when the budget is already
/// spent and the shard should not run at all.
bool RemainingBudget(const EnumerateRequest& request,
                            const WallTimer& timer, double* remaining) {
  *remaining = 0;  // 0 = unlimited
  if (request.time_budget_seconds <= 0) return true;
  *remaining = request.time_budget_seconds - timer.ElapsedSeconds();
  return *remaining > 0;
}

/// Runs body(0) .. body(n - 1): inline on the calling thread, in index
/// order, when `threads` < 2, else on a pool of min(threads, n) workers.
/// An exception escaping a shard is recorded as an error instead of
/// aborting the process.
template <typename Body>
void RunShards(size_t threads, size_t n, ErrorCollector* errors,
               const Body& body) {
  auto guarded = [errors, &body](size_t i) {
    try {
      body(i);
    } catch (const std::exception& e) {
      errors->Record(std::string("worker failed: ") + e.what());
    } catch (...) {
      errors->Record("worker failed with an unknown exception");
    }
  };
  if (threads < 2) {
    for (size_t i = 0; i < n; ++i) guarded(i);
    return;
  }
  ThreadPool pool(std::min(threads, n));
  for (size_t i = 0; i < n; ++i) pool.Submit([&guarded, i] { guarded(i); });
  pool.Wait();
}

/// Rejects requests carrying options for backends that define none (the
/// parallel plans below bypass the backend classes and drive the engines
/// directly, so they mirror the sequential unknown-key rejection).
std::optional<std::string> RejectOptions(const EnumerateRequest& request) {
  if (request.backend_options.empty()) return std::nullopt;
  return "unknown backend option '" + request.backend_options.begin()->first +
         "'";
}

// ------------------------------------------------------- stats merging ---

/// Folds the per-shard unified stats of the component plan into one
/// result. Counters add up; `completed` holds iff every shard completed;
/// detail blocks merge field-wise (their `seconds` become aggregate
/// worker seconds — the top-level `seconds` is the driver's wall clock).
EnumerateStats MergeShardStats(std::vector<EnumerateStats> shards) {
  EnumerateStats out;
  for (EnumerateStats& s : shards) {
    out.work_units += s.work_units;
    out.completed = out.completed && s.completed;
    out.out_of_memory = out.out_of_memory || s.out_of_memory;
    if (s.traversal.has_value()) {
      if (!out.traversal.has_value()) out.traversal.emplace();
      MergeInto(&*out.traversal, *s.traversal);
    }
    if (s.large_mbp.has_value()) {
      if (!out.large_mbp.has_value()) out.large_mbp.emplace();
      LargeMbpStats& l = *out.large_mbp;
      MergeInto(&l.traversal, s.large_mbp->traversal);
      l.core_left += s.large_mbp->core_left;
      l.core_right += s.large_mbp->core_right;
    }
    if (s.imb.has_value()) {
      if (!out.imb.has_value()) out.imb.emplace();
      out.imb->nodes += s.imb->nodes;
      out.imb->solutions += s.imb->solutions;
      out.imb->completed = out.imb->completed && s.imb->completed;
      out.imb->seconds += s.imb->seconds;
    }
    if (s.inflation.has_value()) {
      if (!out.inflation.has_value()) out.inflation.emplace();
      out.inflation->solutions += s.inflation->solutions;
      out.inflation->completed =
          out.inflation->completed && s.inflation->completed;
      out.inflation->out_of_budget =
          out.inflation->out_of_budget || s.inflation->out_of_budget;
      out.inflation->inflated_edges += s.inflation->inflated_edges;
      out.inflation->seconds += s.inflation->seconds;
    }
  }
  return out;
}

/// The stats of a shard the time budget skipped before it started: not
/// completed, with the detail block `algorithm` reports engaged (the
/// traversal block for the traversal family). Without it the merged
/// stats' JSON schema would depend on which shards the expiring budget
/// happened to hit. A skipped large-mbp shard still reports the size of
/// the graph it would have traversed.
EnumerateStats SkippedShardStats(const std::string& algorithm,
                                 const BipartiteGraph& shard) {
  EnumerateStats s;
  s.completed = false;
  if (algorithm == "imb") {
    s.imb.emplace();
    s.imb->completed = false;
  } else if (algorithm == "inflation") {
    s.inflation.emplace();
    s.inflation->completed = false;
  } else if (algorithm == "large-mbp") {
    s.large_mbp = LargeMbpStats{{}, shard.NumLeft(), shard.NumRight()};
    s.large_mbp->traversal.completed = false;
  } else {
    s.traversal.emplace();
    s.traversal->completed = false;
  }
  return s;
}

/// Splits [0, total) into `chunks` near-equal contiguous ranges.
std::vector<std::pair<uint64_t, uint64_t>> SplitRange(uint64_t total,
                                                      uint64_t chunks) {
  chunks = std::max<uint64_t>(1, std::min(chunks, total));
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(chunks);
  for (uint64_t i = 0; i < chunks; ++i) {
    out.emplace_back(total * i / chunks, total * (i + 1) / chunks);
  }
  return out;
}

// ------------------------------------------------- brute-force: masks ----

EnumerateStats RunMasks(const BipartiteGraph& g,
                        const EnumerateRequest& request, size_t threads,
                        SolutionSink* sink) {
  if (auto err = RejectOptions(request)) return RejectedStats(*err);
  WallTimer timer;
  Deadline deadline(request.time_budget_seconds);
  CancellationToken stop(request.cancellation);
  SharedDelivery delivery(request, sink, &stop);
  ErrorCollector errors;

  // Oversplit for load balance: dense mask slices are much slower than
  // sparse ones.
  const auto ranges =
      SplitRange(uint64_t{1} << g.NumLeft(), uint64_t{threads} * 8);
  std::vector<uint8_t> chunk_completed(ranges.size(), 1);
  RunShards(threads, ranges.size(), &errors, [&](size_t i) {
    bool scan_completed = true;
    const std::vector<Biplex> found = BruteForceMaximalBiplexesMaskRange(
        g, request.k, &deadline, &stop, &scan_completed, ranges[i].first,
        ranges[i].second);
    for (const Biplex& b : found) {
      if (deadline.Expired() || stop.IsCancelled() || !delivery.Deliver(b)) {
        scan_completed = false;
        break;
      }
    }
    if (!scan_completed) chunk_completed[i] = 0;
  });
  if (std::string err = errors.Take(); !err.empty()) {
    return RejectedStats(std::move(err));
  }

  EnumerateStats out;
  out.work_units = uint64_t{1} << (g.NumLeft() + g.NumRight());
  out.solutions = delivery.delivered();
  out.completed = std::all_of(chunk_completed.begin(), chunk_completed.end(),
                              [](uint8_t c) { return c != 0; });
  out.seconds = timer.ElapsedSeconds();
  out.plan = ExecutionPlan{"masks", ranges.size()};
  return out;
}

// ------------------------------------------------- imb: root branches ----

EnumerateStats RunRoots(const BipartiteGraph& g,
                        const EnumerateRequest& request, size_t threads,
                        SolutionSink* sink) {
  if (auto err = RejectOptions(request)) return RejectedStats(*err);
  WallTimer timer;
  // Empty graph: SplitRange(0, n) emits one (0, 0) shard, and the backend
  // reports the empty biplex from the root_begin == 0 shard — exactly the
  // sequential result. No special case needed; the shard path below is
  // pinned by ParallelImb.EmptyGraphIsATrivialNoOp.
  CancellationToken stop(request.cancellation);
  SharedDelivery delivery(request, sink, &stop);
  ErrorCollector errors;

  const auto ranges = SplitRange(g.NumLeft() + g.NumRight(),
                                 uint64_t{threads} * 4);
  std::vector<EnumerateStats> shard_stats(ranges.size());
  RunShards(threads, ranges.size(), &errors, [&](size_t i) {
    ImbOptions opts;
    opts.k = request.k.left;  // uniformity validated by the facade
    opts.theta_left = request.theta_left;
    opts.theta_right = request.theta_right;
    opts.max_results = request.max_results;
    if (!RemainingBudget(request, timer, &opts.time_budget_seconds)) {
      shard_stats[i] = SkippedShardStats("imb", g);
      return;
    }
    opts.cancel = &stop;
    opts.root_begin = static_cast<size_t>(ranges[i].first);
    opts.root_end = static_cast<size_t>(ranges[i].second);
    ImbStats is = ImbEngine(g, opts).Run(
        [&](const Biplex& b) { return delivery.Deliver(b); });
    EnumerateStats& s = shard_stats[i];
    s.work_units = is.nodes;
    s.completed = is.completed;
    s.imb = is;
  });
  if (std::string err = errors.Take(); !err.empty()) {
    return RejectedStats(std::move(err));
  }

  EnumerateStats out = MergeShardStats(std::move(shard_stats));
  out.solutions = delivery.delivered();
  out.seconds = timer.ElapsedSeconds();
  out.plan = ExecutionPlan{"roots", ranges.size()};
  return out;
}

// ------------------------------------- everything else: components -------

/// Sink handed to a component worker's backend: translates the
/// component's compact ids back to execution-graph ids (the maps are
/// ascending, so sortedness is preserved) and forwards to the shared
/// delivery.
class MappingSink final : public SolutionSink {
 public:
  MappingSink(SharedDelivery* delivery, const InducedSubgraph& component)
      : delivery_(delivery), component_(component) {}

  bool Accept(const Biplex& solution) override {
    Biplex mapped;
    mapped.left.reserve(solution.left.size());
    for (VertexId v : solution.left) {
      mapped.left.push_back(component_.left_map[v]);
    }
    mapped.right.reserve(solution.right.size());
    for (VertexId u : solution.right) {
      mapped.right.push_back(component_.right_map[u]);
    }
    return delivery_->Deliver(mapped);
  }

 private:
  SharedDelivery* delivery_;
  const InducedSubgraph& component_;
};

/// True iff the peeled core may be split into components: solutions
/// provably never span two components, and no per-enumeration budget
/// would turn into a per-shard one if copied into every shard. max_links
/// is an engine-internal work counter with no cross-engine accounting
/// hook, and the inflation baseline's max_inflated_edges is a memory
/// guard: copying either would let a truncated or OUT run "complete" when
/// sharded.
bool SplitApplies(const EnumerateRequest& request, const AlgorithmInfo& info) {
  return ComponentShardingIsSafe(request.k, request.theta_left,
                                 request.theta_right) &&
         request.max_links == 0 &&
         !(info.name == "inflation" &&
           request.backend_options.count("max_inflated_edges") != 0);
}

/// Peel and split: the shards of the request (see the header), with id
/// maps back to execution-graph ids, largest first (a fixed order, so a
/// straggler starts early). Empty when the backend should run on `g`
/// itself: no peel applies, or the one shard kept every vertex.
std::vector<InducedSubgraph> PeelAndSplit(const BipartiteGraph& g,
                                          const EnumerateRequest& request,
                                          const AlgorithmInfo& info) {
  const CoreDegrees d = RequestCoreDegrees(request);
  if (d.alpha == 0 && d.beta == 0) return {};
  // Copy only what is kept: a peel that keeps every vertex leaves `g`
  // itself, and a core of one component is its own single shard.
  const CoreResult kept = AlphaBetaCore(g, d.alpha, d.beta);
  const bool whole = kept.left.size() == g.NumLeft() &&
                     kept.right.size() == g.NumRight();
  InducedSubgraph core;
  if (!whole) core = Induce(g, kept.left, kept.right);
  const BipartiteGraph& peeled = whole ? g : core.graph;
  std::vector<InducedSubgraph> shards;
  if (SplitApplies(request, info)) {
    const ComponentLabeling labels = LabelConnectedComponents(peeled);
    if (labels.num_components >= 2) {
      for (InducedSubgraph& c : ConnectedComponents(peeled, labels)) {
        if (c.graph.NumLeft() < request.theta_left ||
            c.graph.NumRight() < request.theta_right) {
          continue;
        }
        if (!whole) {
          for (VertexId& v : c.left_map) v = core.left_map[v];
          for (VertexId& u : c.right_map) u = core.right_map[u];
        }
        shards.push_back(std::move(c));
      }
      std::stable_sort(shards.begin(), shards.end(),
                       [](const InducedSubgraph& a, const InducedSubgraph& b) {
                         return a.graph.NumEdges() > b.graph.NumEdges();
                       });
    }
  }
  if (shards.empty()) {
    if (whole) return {};
    shards.push_back(std::move(core));
  }
  return shards;
}

/// Enumerate: runs the backend on every shard and merges the results.
/// `timer` started before the peel, which counts toward the time budget
/// and the run's seconds.
EnumerateStats RunComponents(const QueryContext& ctx,
                             const std::vector<InducedSubgraph>& shards,
                             const EnumerateRequest& request,
                             const AlgorithmRegistry& registry,
                             const AlgorithmInfo& info, size_t threads,
                             const WallTimer& timer, SolutionSink* sink) {
  CancellationToken stop(request.cancellation);
  SharedDelivery delivery(request, sink, &stop);
  ErrorCollector errors;
  std::vector<EnumerateStats> shard_stats(shards.size());
  const size_t workers = std::min(threads, shards.size());
  RunShards(workers, shards.size(), &errors, [&](size_t i) {
    EnumerateRequest shard_request = request;
    shard_request.cancellation = &stop;
    shard_request.threads = 1;
    if (!RemainingBudget(request, timer,
                         &shard_request.time_budget_seconds)) {
      shard_stats[i] = SkippedShardStats(info.name, shards[i].graph);
      return;
    }
    MappingSink mapping(&delivery, shards[i]);
    // Each shard wraps its component in a borrowed prepared graph (no
    // artifacts). Inline shards run one after another on the calling
    // thread and may reuse the session's scratch; pool workers must not
    // share it.
    std::shared_ptr<const PreparedGraph> shard_prepared =
        PreparedGraph::Borrow(shards[i].graph);
    QueryContext shard_ctx{shard_prepared.get(),
                           workers < 2 ? ctx.scratch : nullptr};
    shard_stats[i] =
        registry.Create(info.name)->Run(shard_ctx, shard_request, &mapping);
    if (!shard_stats[i].error.empty()) {
      errors.Record(shard_stats[i].error);
      stop.Cancel();  // identical rejection awaits the other shards
    }
  });
  if (std::string err = errors.Take(); !err.empty()) {
    return RejectedStats(std::move(err));
  }

  EnumerateStats out = MergeShardStats(std::move(shard_stats));
  out.solutions = delivery.delivered();
  out.seconds = timer.ElapsedSeconds();
  out.plan = ExecutionPlan{shards.size() == 1 ? "sequential" : "components",
                           shards.size()};
  return out;
}

}  // namespace

size_t ResolveThreadCount(int threads) {
  // Clamp absurd requests: beyond this, extra workers only add memory and
  // scheduler pressure (and std::thread creation can throw once the
  // process hits its thread limit, which nothing above could report
  // cleanly). Pool sizes are further capped by the number of shards.
  constexpr size_t kMaxThreads = 256;
  if (threads <= 0) return std::min(ThreadPool::HardwareThreads(), kMaxThreads);
  return std::min(static_cast<size_t>(threads), kMaxThreads);
}

CoreDegrees RequestCoreDegrees(const EnumerateRequest& request) {
  const size_t kl = static_cast<size_t>(request.k.left);
  const size_t kr = static_cast<size_t>(request.k.right);
  CoreDegrees d;
  if (request.theta_right > kl) d.alpha = request.theta_right - kl;
  if (request.theta_left > kr) d.beta = request.theta_left - kr;
  return d;
}

bool ComponentShardingIsSafe(KPair k, size_t theta_left, size_t theta_right) {
  // A maximal k-biplex S = (L', R') touching two or more connected
  // components satisfies two structural facts:
  //   (1) if |L'| > k.right, every right member is confined to the
  //       components L' touches (a right vertex elsewhere would
  //       disconnect all of L'); so either L' spans >= 2 components —
  //       which forces |R'| <= 2*k.left, because each touched component
  //       must hold >= |R'| - k.left right members — or L' sits in one
  //       component and S does not span at all. Hence a spanning S has
  //       |L'| <= k.right or |R'| <= 2*k.left.
  //   (2) symmetrically, |R'| <= k.left or |L'| <= 2*k.right.
  // The thresholds exclude every spanning solution when they contradict
  // (1) or (2). The same bound makes per-component maximality global:
  // a delivered solution has |R'| >= theta_right > k.left and
  // |L'| >= theta_left > k.right, so no vertex of another component can
  // be added to it.
  const size_t kl = static_cast<size_t>(k.left);
  const size_t kr = static_cast<size_t>(k.right);
  return (theta_left > kr && theta_right > 2 * kl) ||
         (theta_right > kl && theta_left > 2 * kr);
}

EnumerateStats RunPlan(const QueryContext& ctx,
                       const EnumerateRequest& request,
                       const AlgorithmRegistry& registry,
                       const AlgorithmInfo& info, SolutionSink* sink) {
  const size_t threads = ResolveThreadCount(request.threads);
  const BipartiteGraph& g = ctx.prepared->ExecutionGraph();
  // One mask or one root: nothing to split. The empty graph (0 roots)
  // stays on the roots plan so its result and stats schema match any
  // other parallel imb run.
  if (threads >= 2 && info.name == "brute-force" && g.NumLeft() != 0) {
    return RunMasks(g, request, threads, sink);
  }
  if (threads >= 2 && info.name == "imb" &&
      g.NumLeft() + g.NumRight() != 1) {
    return RunRoots(g, request, threads, sink);
  }
  WallTimer timer;
  if (info.name != "brute-force" && info.name != "imb") {
    const std::vector<InducedSubgraph> shards =
        PeelAndSplit(g, request, info);
    if (!shards.empty()) {
      return RunComponents(ctx, shards, request, registry, info, threads,
                           timer, sink);
    }
  }
  const double peel_seconds = timer.ElapsedSeconds();
  EnumerateStats out = registry.Create(info.name)->Run(ctx, request, sink);
  out.seconds += peel_seconds;
  if (out.ok()) out.plan = ExecutionPlan{"sequential", 1};
  return out;
}

}  // namespace internal
}  // namespace kbiplex
