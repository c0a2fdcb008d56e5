#include "api/query_session.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "api/parallel_driver.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

/// Translates execution-graph ids back to input-graph ids before
/// forwarding to the caller's sink. Stateless apart from the forwarding
/// targets, so it inherits the inner sink's threading contract.
class MapBackSink final : public SolutionSink {
 public:
  MapBackSink(const RenumberedGraph* renumbering, SolutionSink* inner)
      : renumbering_(renumbering), inner_(inner) {}

  bool Accept(const Biplex& solution) override {
    VertexSetPair mapped =
        renumbering_->MapBack(solution.left, solution.right);
    Biplex original{std::move(mapped.left), std::move(mapped.right)};
    return inner_->Accept(original);
  }

  bool ThreadCompatible() const override {
    return inner_->ThreadCompatible();
  }

 private:
  const RenumberedGraph* renumbering_;
  SolutionSink* inner_;
};

/// True iff the cached (a,a)-core bound proves the request's result set
/// empty: every solution lies inside the request's (α,β)-core
/// (internal::RequestCoreDegrees), which is empty whenever min(α,β)
/// exceeds the largest non-empty uniform core.
bool CoreBoundProvesEmpty(const PreparedGraph& prepared,
                          const EnumerateRequest& request) {
  const internal::CoreDegrees d = internal::RequestCoreDegrees(request);
  const size_t demand = std::min(d.alpha, d.beta);
  return demand != 0 && demand > prepared.MaxUniformCore();
}

}  // namespace

QuerySession::QuerySession(std::shared_ptr<const PreparedGraph> prepared,
                           const AlgorithmRegistry& registry)
    : prepared_(std::move(prepared)), registry_(&registry) {}

EnumerateStats QuerySession::Run(const EnumerateRequest& request,
                                 SolutionSink* sink) {
  ++queries_run_;
  const PreparedGraph& prepared = *prepared_;
  const AlgorithmRegistry& registry = *registry_;
  const std::string name = NormalizeAlgorithmName(request.algorithm);
  std::optional<AlgorithmInfo> info = registry.Find(name);
  if (!info.has_value()) {
    std::string names;
    for (const std::string& n : registry.Names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    EnumerateStats out = RejectedStats(
        "unknown algorithm '" + request.algorithm + "'; registered: " + names);
    out.algorithm = name;
    return out;
  }

  const BipartiteGraph& exec = prepared.ExecutionGraph();
  EnumerateStats out;
  if (request.k.left < 1 || request.k.right < 1) {
    out = RejectedStats("disconnection budgets must be >= 1");
  } else if (request.threads < 0) {
    out = RejectedStats(
        "threads must be >= 0 (0 = one per hardware thread)");
  } else if (request.threads != 1 && !sink->ThreadCompatible()) {
    // Deterministic contract check: any request asking for parallel
    // delivery is rejected with an incompatible sink, even when the
    // driver would have fallen back to the sequential path — whether a
    // parallel plan engages depends on the graph and the hardware, and a
    // sink contract must not.
    out = RejectedStats(
        "threads = " + std::to_string(request.threads) +
        " asks for delivery from worker threads, but the sink does "
        "not declare thread compatibility; wrap it in SynchronizedSink or "
        "override SolutionSink::ThreadCompatible() (see "
        "api/solution_sink.h)");
  } else if (!info->supports_asymmetric_k && !request.k.IsUniform()) {
    out = RejectedStats("algorithm '" + name +
                        "' requires uniform budgets (k.left == k.right)");
  } else if (info->requires_theta &&
             (request.theta_left < 1 || request.theta_right < 1)) {
    out = RejectedStats("algorithm '" + name +
                        "' requires theta_left >= 1 and theta_right >= 1");
  } else if (info->max_side != 0 && (exec.NumLeft() > info->max_side ||
                                     exec.NumRight() > info->max_side)) {
    out = RejectedStats("algorithm '" + name + "' supports at most " +
                        std::to_string(info->max_side) +
                        " vertices per side");
  } else if (Cancelled(request.cancellation)) {
    out.completed = false;
    out.cancelled = true;
  } else if (prepared.options().core_bound_shortcut &&
             request.backend_options.empty() &&
             CoreBoundProvesEmpty(prepared, request)) {
    // Provably empty result set: answer from the cached core bound without
    // touching a backend. Restricted to option-free requests so a request
    // with a bad backend option is still rejected, exactly like a run —
    // and to graphs prepared with the shortcut enabled, so the one-shot
    // compatibility paths keep the pre-session stats (backend counters
    // and all) byte for byte and never pay the core-bound build.
    WallTimer timer;
    ++short_circuits_;
    out.completed = true;
    out.seconds = timer.ElapsedSeconds();
  } else {
    // Renumbered execution graphs deliver execution ids; map them back to
    // input ids right before the caller's sink (threshold filtering and
    // result caps act on sizes, which renumbering preserves).
    MapBackSink mapper(prepared.renumbered() ? &prepared.Renumbering()
                                             : nullptr,
                       sink);
    SolutionSink* delivery =
        prepared.renumbered() ? static_cast<SolutionSink*>(&mapper) : sink;
    // The session's scratch is single-threaded state; pool workers get
    // their own per-run scratch (the driver never hands it to them).
    QueryContext ctx{&prepared, &scratch_};
    out = internal::RunPlan(ctx, request, registry, *info, delivery);
    if (!out.ok()) out.completed = false;
    if (!out.completed && Cancelled(request.cancellation)) {
      out.cancelled = true;
    }
  }
  out.algorithm = name;
  return out;
}

EnumerateStats QuerySession::Run(
    const EnumerateRequest& request,
    const std::function<bool(const Biplex&)>& cb) {
  CallbackSink sink(cb);
  return Run(request, &sink);
}

std::vector<Biplex> QuerySession::Collect(const EnumerateRequest& request,
                                          EnumerateStats* stats) {
  CollectingSink sink;
  EnumerateStats s = Run(request, &sink);
  if (stats != nullptr) *stats = s;
  return sink.Take();
}

uint64_t QuerySession::Count(const EnumerateRequest& request,
                             EnumerateStats* stats) {
  CountingSink sink;
  EnumerateStats s = Run(request, &sink);
  if (stats != nullptr) *stats = s;
  return sink.count();
}

}  // namespace kbiplex
