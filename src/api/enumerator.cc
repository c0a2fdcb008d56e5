#include "api/enumerator.h"

#include <charconv>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "baselines/imb.h"
#include "baselines/inflation_enum.h"
#include "core/brute_force.h"
#include "core/btraversal.h"
#include "core/large_mbp.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

/// Consumes EnumerateRequest::backend_options entries, collecting the
/// first parse failure and flagging keys no backend recognized.
class OptionReader {
 public:
  explicit OptionReader(const std::map<std::string, std::string>& opts)
      : opts_(opts) {}

  void TakeBool(const std::string& key, bool* out) {
    auto v = Take(key);
    if (!v.has_value()) return;
    if (*v == "true" || *v == "1") {
      *out = true;
    } else if (*v == "false" || *v == "0") {
      *out = false;
    } else {
      Fail(key, *v, "true|false");
    }
  }

  /// Accepts only a plain run of decimal digits that fits in size_t:
  /// std::from_chars rejects a sign, leading whitespace and overflow, and
  /// the end check rejects trailing characters.
  void TakeSize(const std::string& key, size_t* out) {
    auto v = Take(key);
    if (!v.has_value()) return;
    const char* end = v->data() + v->size();
    size_t value = 0;
    auto [ptr, ec] = std::from_chars(v->data(), end, value);
    if (ec != std::errc() || ptr != end) {
      Fail(key, *v, "a non-negative integer");
      return;
    }
    *out = value;
  }

  template <typename T>
  void TakeChoice(const std::string& key,
                  std::initializer_list<std::pair<const char*, T>> choices,
                  T* out) {
    auto v = Take(key);
    if (!v.has_value()) return;
    std::string allowed;
    for (const auto& [name, value] : choices) {
      if (*v == name) {
        *out = value;
        return;
      }
      if (!allowed.empty()) allowed += '|';
      allowed += name;
    }
    Fail(key, *v, allowed);
  }

  /// Empty string iff every option parsed and was recognized.
  std::string Finish() const {
    if (!error_.empty()) return error_;
    for (const auto& [key, value] : opts_) {
      if (consumed_.count(key) == 0) {
        return "unknown backend option '" + key + "'";
      }
    }
    return "";
  }

 private:
  std::optional<std::string> Take(const std::string& key) {
    auto it = opts_.find(key);
    if (it == opts_.end()) return std::nullopt;
    consumed_.emplace(key, true);
    return it->second;
  }

  void Fail(const std::string& key, const std::string& value,
            const std::string& expected) {
    if (error_.empty()) {
      error_ = "backend option '" + key + "' = '" + value + "' (expected " +
               expected + ")";
    }
  }

  const std::map<std::string, std::string>& opts_;
  std::map<std::string, bool> consumed_;
  std::string error_;
};

EnumerateStats Rejected(std::string message) {
  EnumerateStats out;
  out.error = std::move(message);
  out.completed = false;
  return out;
}

/// The facade-side delivery wrapper every backend routes solutions
/// through: enforces the size thresholds and max_results uniformly, even
/// for backends whose native options lack one of the knobs. A solution
/// counts as delivered only once the sink accepted it, so a sink-initiated
/// stop leaves `delivered` (and therefore stats.solutions) at the number
/// of solutions the sink actually took.
struct Delivery {
  const EnumerateRequest& request;
  SolutionSink* sink;
  uint64_t delivered = 0;

  bool Deliver(const Biplex& b) {
    if (b.left.size() < request.theta_left ||
        b.right.size() < request.theta_right) {
      return true;
    }
    if (!sink->Accept(b)) return false;
    ++delivered;
    if (request.max_results != 0 && delivered >= request.max_results) {
      return false;
    }
    return true;
  }
};

// ------------------------------------------------------ traversal family --

class TraversalBackend final : public AlgorithmBackend {
 public:
  explicit TraversalBackend(TraversalOptions base) : base_(base) {}

  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) override {
    const BipartiteGraph& g = ctx.prepared->ExecutionGraph();
    TraversalOptions opts = base_;
    opts.scratch = ctx.scratch;
    opts.k = req.k;
    opts.theta_left = req.theta_left;
    opts.theta_right = req.theta_right;
    opts.max_results = req.max_results;
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.max_links = req.max_links;
    opts.cancel = req.cancellation;

    OptionReader reader(req.backend_options);
    reader.TakeChoice("anchored_side",
                      {{"left", Side::kLeft}, {"right", Side::kRight}},
                      &opts.anchored_side);
    reader.TakeChoice("local_impl",
                      {{"direct", LocalEnumImpl::kDirect},
                       {"inflation", LocalEnumImpl::kInflation}},
                      &opts.local_impl);
    reader.TakeChoice("local_l",
                      {{"l10", LRefinement::kL10}, {"l20", LRefinement::kL20}},
                      &opts.local.l_variant);
    reader.TakeChoice("local_r",
                      {{"r10", RRefinement::kR10}, {"r20", RRefinement::kR20}},
                      &opts.local.r_variant);
    reader.TakeBool("polynomial_delay_output",
                    &opts.polynomial_delay_output);
    if (std::string err = reader.Finish(); !err.empty()) {
      return Rejected(std::move(err));
    }
    if (opts.local_impl == LocalEnumImpl::kInflation && !req.k.IsUniform()) {
      return Rejected("local_impl=inflation requires uniform budgets");
    }

    Delivery delivery{req, sink};
    TraversalStats ts = TraversalEngine(g, opts).Run(
        [&](const Biplex& b) { return delivery.Deliver(b); });

    EnumerateStats out;
    out.solutions = delivery.delivered;
    out.work_units = ts.links;
    out.completed = ts.completed;
    out.seconds = ts.seconds;
    out.traversal = ts;
    return out;
  }

 private:
  TraversalOptions base_;
};

// ------------------------------------------------------------- large-mbp --

class LargeMbpBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) override {
    const BipartiteGraph& g = ctx.prepared->ExecutionGraph();
    LargeMbpOptions opts;
    opts.scratch = ctx.scratch;
    opts.k = req.k;
    opts.theta_left = req.theta_left;
    opts.theta_right = req.theta_right;
    opts.max_results = req.max_results;
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.cancel = req.cancellation;

    OptionReader reader(req.backend_options);
    reader.TakeBool("core_reduction", &opts.core_reduction);
    if (std::string err = reader.Finish(); !err.empty()) {
      return Rejected(std::move(err));
    }

    Delivery delivery{req, sink};
    LargeMbpStats ls = LargeMbpEngine(g, opts).Run(
        [&](const Biplex& b) { return delivery.Deliver(b); });

    EnumerateStats out;
    out.solutions = delivery.delivered;
    out.work_units = ls.traversal.links;
    out.completed = ls.completed;
    out.seconds = ls.seconds;
    out.large_mbp = ls;
    return out;
  }
};

// ------------------------------------------------------------------- imb --

class ImbBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) override {
    const BipartiteGraph& g = ctx.prepared->ExecutionGraph();
    ImbOptions opts;
    opts.k = req.k.left;  // uniformity validated by the facade
    opts.theta_left = req.theta_left;
    opts.theta_right = req.theta_right;
    opts.max_results = req.max_results;
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.cancel = req.cancellation;

    OptionReader reader(req.backend_options);
    if (std::string err = reader.Finish(); !err.empty()) {
      return Rejected(std::move(err));
    }

    Delivery delivery{req, sink};
    ImbStats is = ImbEngine(g, opts).Run(
        [&](const Biplex& b) { return delivery.Deliver(b); });

    EnumerateStats out;
    out.solutions = delivery.delivered;
    out.work_units = is.nodes;
    out.completed = is.completed;
    out.seconds = is.seconds;
    out.imb = is;
    return out;
  }
};

// ------------------------------------------------------------- inflation --

class InflationBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) override {
    const BipartiteGraph& g = ctx.prepared->ExecutionGraph();
    InflationBaselineOptions opts;
    opts.k = req.k.left;  // uniformity validated by the facade
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.cancel = req.cancellation;
    // The baseline has no size thresholds: its result cap counts pre-filter
    // solutions, so with thresholds active the facade's Delivery enforces
    // max_results instead.
    const bool filtered = req.theta_left > 0 || req.theta_right > 0;
    opts.max_results = filtered ? 0 : req.max_results;

    OptionReader reader(req.backend_options);
    reader.TakeSize("max_inflated_edges", &opts.max_inflated_edges);
    if (std::string err = reader.Finish(); !err.empty()) {
      return Rejected(std::move(err));
    }

    Delivery delivery{req, sink};
    InflationBaselineStats is = InflationEngine(g, opts).Run(
        [&](const Biplex& b) { return delivery.Deliver(b); });

    EnumerateStats out;
    out.solutions = delivery.delivered;
    out.work_units = is.inflated_edges;
    out.completed = is.completed;
    out.out_of_memory = is.out_of_budget;
    out.seconds = is.seconds;
    out.inflation = is;
    return out;
  }
};

// ----------------------------------------------------------- brute force --

class BruteForceBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) override {
    const BipartiteGraph& g = ctx.prepared->ExecutionGraph();
    OptionReader reader(req.backend_options);
    if (std::string err = reader.Finish(); !err.empty()) {
      return Rejected(std::move(err));
    }

    WallTimer timer;
    Deadline deadline(req.time_budget_seconds);
    bool scan_completed = true;
    std::vector<Biplex> all = BruteForceMaximalBiplexes(
        g, req.k, &deadline, req.cancellation, &scan_completed);

    EnumerateStats out;
    out.work_units = static_cast<uint64_t>(1)
                     << (g.NumLeft() + g.NumRight());  // candidate pairs
    out.completed = scan_completed;
    Delivery delivery{req, sink};
    for (const Biplex& b : all) {
      if (deadline.Expired() || Cancelled(req.cancellation)) {
        out.completed = false;
        break;
      }
      if (!delivery.Deliver(b)) {
        out.completed = false;
        break;
      }
    }
    out.solutions = delivery.delivered;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }
};

}  // namespace

EnumerateStats Enumerate(const BipartiteGraph& g,
                         const EnumerateRequest& request,
                         SolutionSink* sink) {
  return QuerySession(PreparedGraph::Borrow(g)).Run(request, sink);
}

// -------------------------------------------------------------- builtins --

namespace internal {

void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry) {
  auto traversal = [registry](const char* name, const char* summary,
                              TraversalOptions base) {
    registry->Register(
        AlgorithmInfo{.name = name, .summary = summary},
        [base] { return std::make_unique<TraversalBackend>(base); });
  };
  traversal("itraversal",
            "reverse search with all three techniques (Algorithm 2)",
            MakeITraversalOptions(1));
  traversal("itraversal-es", "iTraversal without the exclusion strategy",
            MakeITraversalNoExclusionOptions(1));
  traversal("itraversal-es-rs", "left-anchored reverse search only",
            MakeITraversalLeftAnchoredOnlyOptions(1));
  traversal("btraversal",
            "conventional reverse-search framework (Algorithm 1)",
            MakeBTraversalOptions(1));
  registry->Register(
      AlgorithmInfo{.name = "large-mbp",
                    .summary = "Section 5 large-MBP enumeration with "
                               "(theta-k)-core pre-reduction",
                    .requires_theta = true},
      [] { return std::make_unique<LargeMbpBackend>(); });
  registry->Register(
      AlgorithmInfo{.name = "imb",
                    .summary = "iMB-style set-enumeration baseline",
                    .supports_asymmetric_k = false},
      [] { return std::make_unique<ImbBackend>(); });
  registry->Register(
      AlgorithmInfo{.name = "inflation",
                    .summary =
                        "FaPlexen-style graph-inflation baseline",
                    .supports_asymmetric_k = false},
      [] { return std::make_unique<InflationBackend>(); });
  registry->Register(
      AlgorithmInfo{.name = "brute-force",
                    .summary = "exhaustive reference enumerator",
                    .max_side = 20},
      [] { return std::make_unique<BruteForceBackend>(); });
}

}  // namespace internal
}  // namespace kbiplex
