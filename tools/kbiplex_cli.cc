// kbiplex command-line tool: enumerate maximal k-biplexes of an edge-list
// graph from the shell, through the prepare/execute session API.
//
//   kbiplex enumerate <edge-list> [--k N | --kl N --kr N] [--max N]
//                     [--budget SECONDS] [--algo NAME] [--theta-l N]
//                     [--theta-r N] [--threads N] [--opt KEY=VALUE]...
//                     [--format text|json] [--quiet]
//   kbiplex large     <edge-list> --theta-l N --theta-r N [--k N] [...]
//   kbiplex batch     <edge-list> [--queries FILE] [--accel] [--renumber]
//   kbiplex stats     <edge-list>
//   kbiplex algos
//
// --algo accepts every name in the algorithm registry (see `kbiplex
// algos`); --opt passes backend-specific options through. With --format
// json, solutions print as JSON lines and the unified run statistics
// follow as a final JSON object on stdout, ready for scripting.
//
// `batch` is the amortized serving mode: the graph is prepared once
// (optionally with an attached adjacency index and degeneracy
// renumbering), then every line of the query file — request flags in the
// same syntax as `enumerate`, e.g. "--algo itraversal --k 2 --max 100" —
// executes against one QuerySession. Empty lines and lines starting with
// '#' are skipped. Exactly one JSON stats object is printed per query
// line; solutions themselves are not printed. --queries defaults to "-"
// (stdin).
//
// Batch files may also mutate the graph between queries:
//   update +L:R -L:R ... [--max-delta-fraction F] [--force-rebuild]
// applies the edge delta (+ inserts, - deletes) as one batch, publishing
// a new epoch that subsequent query lines run against; one JSON object
// describing the apply is printed per update line.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "api/registry.h"
#include "api/request_parse.h"
#include "graph/core_decomposition.h"
#include "graph/graph_io.h"
#include "update/incremental.h"
#include "update/update_batch.h"
#include "util/json.h"

using namespace kbiplex;

namespace {

struct CliArgs {
  std::string command;
  std::string path;
  EnumerateRequest request;
  std::string queries_path = "-";  // batch query source ("-" = stdin)
  bool json = false;
  bool sort = false;    // buffer + emit solutions in canonical order
  bool quiet = false;   // suppress solution lines, print counts only
  bool accel = false;   // attach the hybrid adjacency index at prepare time
  bool renumber = false;  // degeneracy-renumber; ids mapped back on output
  size_t accel_budget = 0;  // index memory budget in bytes (0 = unlimited)
};

void PrintUsage() {
  std::string names;
  for (const std::string& n : AlgorithmRegistry::Global().Names()) {
    if (!names.empty()) names += "|";
    names += n;
  }
  std::cerr << "usage:\n"
               "  kbiplex enumerate <edge-list> [--k N | --kl N --kr N] "
               "[--max N] [--budget S]\n"
               "                    [--algo NAME] [--theta-l N] [--theta-r N] "
               "[--threads N]\n"
               "                    [--opt KEY=VALUE]... [--format text|json] "
               "[--quiet]\n"
               "                    [--sort] [--accel] [--accel-budget B] "
               "[--renumber]\n"
               "  kbiplex large <edge-list> --theta-l N --theta-r N [--k N] "
               "[--max N] [--budget S] [--quiet]\n"
               "  kbiplex batch <edge-list> [--queries FILE|-] [--accel] "
               "[--renumber]\n"
               "  kbiplex stats <edge-list>\n"
               "  kbiplex algos\n"
               "batch reads one query per line (request flags, e.g. \"--algo "
               "imb --k 1 --max 50\"),\n"
               "prepares the graph once, and prints one JSON stats object "
               "per query.\n"
               "batch lines starting with \"update\" mutate the graph: "
               "update +L:R -L:R ...\n"
               "  [--max-delta-fraction F] [--force-rebuild] — later queries "
               "see the new epoch.\n"
               "algorithms: "
            << names << "\n";
}

std::optional<CliArgs> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliArgs args;
  args.command = argv[1];
  if (args.command == "algos") return args;
  if (argc < 3) return std::nullopt;
  args.path = argv[2];
  std::vector<std::string> tokens(argv + 3, argv + argc);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    std::string error;
    switch (ParseRequestFlag(tokens, &i, &args.request, &error)) {
      case RequestFlagParse::kConsumed:
        continue;
      case RequestFlagParse::kError:
        std::cerr << error << "\n";
        return std::nullopt;
      case RequestFlagParse::kUnknown:
        break;
    }
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= tokens.size()) return std::nullopt;
      return tokens[++i];
    };
    if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--sort") {
      args.sort = true;
    } else if (flag == "--accel") {
      args.accel = true;
    } else if (flag == "--accel-budget") {
      auto v = next();
      if (!v) return std::nullopt;
      if (!ParseSize(*v, &args.accel_budget)) {
        std::cerr << "--accel-budget expects a byte count, got: " << *v
                  << "\n";
        return std::nullopt;
      }
    } else if (flag == "--renumber") {
      args.renumber = true;
    } else if (flag == "--queries") {
      auto v = next();
      if (!v) return std::nullopt;
      args.queries_path = *v;
    } else if (flag == "--format") {
      auto v = next();
      if (!v) return std::nullopt;
      if (*v == "json") {
        args.json = true;
      } else if (*v != "text") {
        std::cerr << "unknown format: " << *v << "\n";
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return std::nullopt;
    }
  }
  return args;
}

/// The prepare-time artifact policy of the CLI: no flag leaves the graph
/// exactly as loaded (engines may still build per-run indexes under their
/// own kAuto policy, matching the pre-session CLI byte for byte); --accel
/// attaches the shared index unconditionally; --renumber enumerates on
/// the degeneracy-renumbered graph with automatic map-back. The
/// core-bound short-circuit stays off for the one-shot commands
/// (enumerate/large answer one query — pre-session stats output,
/// including the backend counter blocks, must not change) and on for
/// batch, where the bound amortizes over the query stream.
PrepareOptions PreparePolicy(const CliArgs& args, bool one_shot) {
  PrepareOptions opts;
  opts.adjacency_index =
      args.accel ? AdjacencyAccelMode::kForce : AdjacencyAccelMode::kOff;
  opts.accel_budget_bytes = args.accel_budget;
  opts.renumber = args.renumber;
  opts.core_bound_shortcut = !one_shot;
  return opts;
}

int RunRequest(const CliArgs& args, BipartiteGraph g) {
  const size_t num_vertices = g.NumVertices();
  QuerySession session(PreparedGraph::Prepare(std::move(g),
                                              PreparePolicy(args,
                                                            /*one_shot=*/true)));
  StreamWriterSink writer(&std::cout,
                          args.json ? StreamWriterSink::Format::kJsonLines
                                    : StreamWriterSink::Format::kText);
  CountingSink counter;
  SolutionSink* sink =
      args.quiet ? static_cast<SolutionSink*>(&counter) : &writer;
  // --sort buffers the run and emits in canonical order, making the
  // solution lines byte-identical across --threads values (a parallel
  // run's delivery order is scheduling-dependent; see
  // docs/wire_protocol.md).
  SortingSink sorter(sink);
  const bool sorting = args.sort && !args.quiet;
  if (sorting) sink = &sorter;
  EnumerateStats stats = session.Run(args.request, sink);
  if (sorting) sorter.Flush();
  if (!stats.ok()) {
    std::cerr << "error: " << stats.error << "\n";
    if (args.json) std::cout << stats.ToJson() << "\n";
    return 2;
  }
  if (args.json) {
    std::cout << stats.ToJson() << "\n";
  } else {
    std::fprintf(stderr, "# %s: %llu maximal biplexes, %.3fs%s\n",
                 stats.algorithm.c_str(),
                 static_cast<unsigned long long>(stats.solutions),
                 stats.seconds, stats.completed ? "" : " (stopped early)");
    if (stats.large_mbp.has_value()) {
      std::fprintf(stderr, "# core %zu+%zu of %zu vertices\n",
                   stats.large_mbp->core_left, stats.large_mbp->core_right,
                   num_vertices);
    }
  }
  return 0;
}

int CmdLarge(CliArgs args, BipartiteGraph g) {
  if (args.request.theta_left == 0 || args.request.theta_right == 0) {
    std::cerr << "large requires --theta-l and --theta-r\n";
    return 2;
  }
  args.request.algorithm = "large-mbp";
  return RunRequest(args, std::move(g));
}

/// Parses one batch `update` line (everything after the keyword):
/// "+L:R" inserts, "-L:R" deletes, plus the two option flags. Returns the
/// error message, empty on success.
std::string ParseUpdateLine(const std::string& rest,
                            update::UpdateBatch* batch,
                            update::UpdateOptions* options) {
  std::istringstream is(rest);
  std::string token;
  while (is >> token) {
    if (token == "--force-rebuild") {
      options->force_rebuild = true;
      continue;
    }
    if (token == "--max-delta-fraction") {
      std::string value;
      if (!(is >> value)) return "--max-delta-fraction expects a number";
      if (!ParseDouble(value, &options->max_delta_fraction)) {
        return "--max-delta-fraction expects a number, got: " + value;
      }
      if (options->max_delta_fraction < 0) {
        return "--max-delta-fraction must be non-negative";
      }
      continue;
    }
    if (token.size() < 4 || (token[0] != '+' && token[0] != '-')) {
      return "bad update token '" + token + "' (want +L:R or -L:R)";
    }
    const size_t colon = token.find(':', 1);
    if (colon == std::string::npos || colon == 1 ||
        colon + 1 >= token.size()) {
      return "bad update token '" + token + "' (want +L:R or -L:R)";
    }
    // Ids are 32-bit unsigned, bounded like the wire's update op.
    uint64_t l = 0, r = 0;
    if (!ParseUint64(token.substr(1, colon - 1), &l) ||
        !ParseUint64(token.substr(colon + 1), &r) || l > 4294967295u ||
        r > 4294967295u) {
      return "bad vertex ids in update token '" + token + "'";
    }
    if (token[0] == '+') {
      batch->Insert(static_cast<VertexId>(l), static_cast<VertexId>(r));
    } else {
      batch->Remove(static_cast<VertexId>(l), static_cast<VertexId>(r));
    }
  }
  if (batch->empty()) return "update line has no edges";
  return "";
}

int CmdBatch(const CliArgs& args, BipartiteGraph g) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.queries_path != "-") {
    file.open(args.queries_path);
    if (!file) {
      std::cerr << "error: cannot open query file " << args.queries_path
                << "\n";
      return 1;
    }
    in = &file;
  }

  // One prepare, N executes: every artifact (index, renumbering,
  // components, core bounds) and all engine scratch is shared across the
  // whole batch through the session. An `update` line replaces the
  // prepared epoch (copy-on-write) and the session is rebuilt against it;
  // engine scratch is the only thing lost.
  std::shared_ptr<const PreparedGraph> prepared = PreparedGraph::Prepare(
      std::move(g), PreparePolicy(args, /*one_shot=*/false));
  auto session = std::make_unique<QuerySession>(prepared);
  bool all_ok = true;
  std::string line;
  while (std::getline(*in, line)) {
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    if (line.compare(start, 6, "update") == 0 &&
        (start + 6 == line.size() || line[start + 6] == ' ' ||
         line[start + 6] == '\t')) {
      update::UpdateBatch batch;
      update::UpdateOptions options;
      std::string err =
          ParseUpdateLine(line.substr(start + 6), &batch, &options);
      update::UpdateResult result;
      if (err.empty()) {
        result = prepared->ApplyUpdates(batch, options);
        err = result.error;
      }
      // Exactly one JSON object per update line, mirroring the per-query
      // stats contract.
      std::ostringstream os;
      if (!err.empty()) {
        os << "{\"update\":\"error\",\"error\":";
        json::AppendEscaped(os, err);
        os << '}';
        all_ok = false;
      } else {
        prepared = result.prepared;
        session = std::make_unique<QuerySession>(prepared);
        os << "{\"update\":\"ok\",\"epoch\":" << prepared->epoch()
           << ",\"inserted\":" << result.edges_inserted
           << ",\"deleted\":" << result.edges_deleted
           << ",\"noop_inserts\":" << result.noop_inserts
           << ",\"noop_deletes\":" << result.noop_deletes
           << ",\"rebuilt\":" << json::Bool(result.rebuilt)
           << ",\"seconds\":";
        json::AppendDouble(os, result.seconds);
        os << '}';
      }
      std::cout << os.str() << "\n";
      continue;
    }
    EnumerateRequest request;
    EnumerateStats stats;
    if (std::string err = ParseRequestLine(line, &request); !err.empty()) {
      stats.error = "bad query line: " + err;
      stats.completed = false;
    } else {
      CountingSink counter;
      stats = session->Run(request, &counter);
    }
    // Exactly one JSON stats object per query line, errors included, so
    // scripted consumers can zip queries with results.
    std::cout << stats.ToJson() << "\n";
    if (!stats.ok()) all_ok = false;
  }
  return all_ok ? 0 : 2;
}

int CmdStats(const BipartiteGraph& g) {
  std::printf("|L| = %zu\n|R| = %zu\n|E| = %zu\ndensity = %.4f\n",
              g.NumLeft(), g.NumRight(), g.NumEdges(), g.EdgeDensity());
  for (size_t a = 1; a <= 8; ++a) {
    CoreResult core = AlphaBetaCore(g, a, a);
    std::printf("(%zu,%zu)-core: %zu + %zu vertices\n", a, a,
                core.left.size(), core.right.size());
    if (core.Empty()) break;
  }
  return 0;
}

int CmdAlgos() {
  for (const AlgorithmInfo& info : AlgorithmRegistry::Global().List()) {
    std::printf("%-18s %s", info.name.c_str(), info.summary.c_str());
    if (!info.supports_asymmetric_k) std::printf(" [uniform k]");
    if (info.requires_theta) std::printf(" [requires theta]");
    if (info.max_side != 0) {
      std::printf(" [sides <= %zu]", info.max_side);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<CliArgs> args = Parse(argc, argv);
  if (!args) {
    PrintUsage();
    return 2;
  }
  if (args->command == "algos") return CmdAlgos();
  LoadResult r = LoadEdgeList(args->path);
  if (!r.ok()) {
    std::cerr << "error: " << r.error << "\n";
    return 1;
  }
  BipartiteGraph& g = *r.graph;
  if (args->command == "enumerate") return RunRequest(*args, std::move(g));
  if (args->command == "large") return CmdLarge(*args, std::move(g));
  if (args->command == "batch") return CmdBatch(*args, std::move(g));
  if (args->command == "stats") return CmdStats(g);
  PrintUsage();
  return 2;
}
