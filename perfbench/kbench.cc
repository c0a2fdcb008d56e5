// kbench: the benchmark binary behind perfbench/run.py.
//
//   kbench gen   --workload W --seed S --dir D   write the inputs into D
//   kbench run   --workload W --seed S --dir D --seconds T --trace 0|1
//                measured process; writes D/run.json (+ hashes, trace)
//   kbench check --workload W --seed S --dir D   reference checks of a run;
//                writes D/check.json
//   kbench host                                  host stamp as JSON
//   kbench self-test                             proves the checks fire
//
// Every subcommand exits 0 on success and 1 on failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "util/simd.h"
#include "workloads.h"

namespace kbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", metric.value);
    if (out.size() > 1) out += ',';
    out += JsonString(name) + ":[" + buf + "," + JsonString(metric.unit) + "]";
  }
  return out + "}";
}

std::string FailuresJson(const std::vector<std::string>& failures) {
  std::string out = "[";
  for (const std::string& f : failures) {
    if (out.size() > 1) out += ',';
    out += JsonString(f);
  }
  return out + "]";
}

int Run(const RunConfig& config) {
  RunOutput out;
  if (const BatchSpec* spec = FindBatchSpec(config.workload)) {
    RunBatch(config, *spec, &out);
  } else {
    RunServe(config, &out);
  }
  std::string spans = "{";
  for (const auto& [name, t] : out.spans) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "[%llu,%.9g,%.9g]",
                  static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    if (spans.size() > 1) spans += ',';
    spans += JsonString(name) + ":" + buf;
  }
  spans += "}";
  const std::string json =
      "{\"attempted\":" + std::to_string(out.attempted) +
      ",\"failed\":" + std::to_string(out.failed) +
      ",\"failures\":" + FailuresJson(out.failures) +
      ",\"end_to_end\":" + MetricsJson(out.end_to_end) +
      ",\"per_layer\":" + MetricsJson(out.per_layer) + ",\"spans\":" + spans +
      "}\n";
  if (!WriteText(config.dir + "/run.json", json)) return 1;
  ResourceSample("end");  // the parent reads VmHWM: peak_rss_mb
  return out.failed == 0 ? 0 : 1;
}

int Check(const RunConfig& config) {
  std::vector<std::string> failures;
  uint64_t checks;
  if (const BatchSpec* spec = FindBatchSpec(config.workload)) {
    checks = CheckBatch(config, *spec, &failures);
  } else {
    checks = CheckServe(config, &failures);
  }
  const std::string json = "{\"checks\":" + std::to_string(checks) +
                           ",\"failures\":" + FailuresJson(failures) + "}\n";
  if (!WriteText(config.dir + "/check.json", json)) return 1;
  return failures.empty() ? 0 : 1;
}

int Host() {
  std::printf("{\"simd\":%s,\"build_type\":%s}\n",
              JsonString(kbiplex::simd::Active().name).c_str(),
              JsonString(KBENCH_BUILD_TYPE).c_str());
  return 0;
}

/// Seeds each corruption the checks must catch and reports whether every
/// one was caught. Runs on a small dense graph so it takes milliseconds.
int SelfTest() {
  const EdgeList g = DenseGraph(7, 16);
  Oracle oracle(g);
  auto prepared = kbiplex::PreparedGraph::Prepare(ToGraph(g));
  kbiplex::QuerySession session(prepared);
  kbiplex::EnumerateRequest request;
  request.k = kbiplex::KPair::Uniform(1);
  request.theta_left = request.theta_right = 5;
  std::vector<kbiplex::Biplex> solutions = session.Collect(request);
  if (solutions.empty()) {
    std::printf("self-test: the test graph has no solutions\n");
    return 1;
  }
  SolutionSet reference;
  for (const kbiplex::Biplex& b : solutions) {
    reference.hashes.push_back(
        SolutionHash(b.left.data(), b.left.size(), b.right.data(), b.right.size()));
  }
  reference.Finish();

  int missed = 0;
  auto expect_caught = [&](const char* what, bool caught) {
    std::printf("self-test %-36s %s\n", what, caught ? "caught" : "MISSED");
    missed += !caught;
  };
  auto set_check_fails = [&](SolutionSet run) {
    run.Finish();
    std::vector<std::string> failures;
    CompareSets("self-test", run, reference, &failures);
    return !failures.empty();
  };

  // The untouched set passes, and every reference solution passes the
  // oracle: the checks are not failing everything.
  bool clean = !set_check_fails(reference);
  for (const kbiplex::Biplex& b : solutions)
    clean = clean && oracle.Check(b.left, b.right, 1, 5, 5).empty();
  std::printf("self-test %-36s %s\n", "clean run passes", clean ? "ok" : "FAILED");

  SolutionSet dropped = reference;
  dropped.hashes.erase(dropped.hashes.begin() + dropped.hashes.size() / 2);
  expect_caught("one solution dropped", set_check_fails(dropped));

  SolutionSet duplicated = reference;
  duplicated.hashes.push_back(duplicated.hashes.front());
  expect_caught("one solution duplicated", set_check_fails(duplicated));

  // A non-maximal k-biplex: a solution with one vertex removed.
  kbiplex::Biplex shrunk = solutions.front();
  shrunk.left.pop_back();
  SolutionSet added = reference;
  added.hashes.push_back(SolutionHash(shrunk.left.data(), shrunk.left.size(),
                                      shrunk.right.data(), shrunk.right.size()));
  expect_caught("non-maximal solution added (set)", set_check_fails(added));
  expect_caught("non-maximal solution added (oracle)",
                !oracle.Check(shrunk.left, shrunk.right, 1, 0, 0).empty());

  // A stream reply whose done count disagrees with its solution lines,
  // through the serve client's own read-and-check path.
  const bool serve_clean = CheckFakeStreamReply(500, 500).empty();
  std::printf("self-test %-36s %s\n", "consistent stream reply passes",
              serve_clean ? "ok" : "FAILED");
  expect_caught("done count != solution lines",
                !CheckFakeStreamReply(499, 500).empty());
  return clean && serve_clean && missed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--dir") {
      config->dir = value;
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return (config->workload == "serve-mixed" ||
          FindBatchSpec(config->workload) != nullptr) &&
         !config->dir.empty();
}

}  // namespace
}  // namespace kbench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "self-test") return kbench::SelfTest();
  if (cmd == "host") return kbench::Host();
  kbench::RunConfig config;
  if (!kbench::ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: kbench gen|run|check --workload W --seed S --dir D "
                 "[--seconds T] [--trace 0|1]\n");
    return 2;
  }
  if (cmd == "gen") return kbench::GenerateInputs(config) ? 0 : 1;
  if (cmd == "run") return kbench::Run(config);
  if (cmd == "check") return kbench::Check(config);
  std::fprintf(stderr, "kbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
