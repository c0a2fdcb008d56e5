// The `serve-mixed` workload: an in-process serve::Server with two
// workers, loaded over the wire, driven closed-loop by two persistent
// serve::LineClient connections plus short-lived churn connections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "graph/bipartite_graph.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace kbench {

using kbiplex::Biplex;
using kbiplex::EnumerateRequest;

namespace {

constexpr size_t kWorkers = 2;
constexpr int kClients = 2;
constexpr int kSetupReps = 5;
constexpr int kFullReps = 25;
// Dense-graph requests whose served solution sets the check compares with
// a direct QuerySession: the two first-500 stream variants of the mix and
// the complete enumeration timed after the loop.
constexpr int kDenseChecked = kStreamVariants + 1;
constexpr int kFullVariant = kStreamVariants;
// The comm query whose final-epoch set the check compares with a fresh
// Prepare of the final edge list.
constexpr int kFinalCommTheta = 9;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LargeMbp(int theta) {
  const std::string t = std::to_string(theta);
  return R"({"algo":"large-mbp","k":1,"theta_l":)" + t + R"(,"theta_r":)" + t +
         "}";
}

/// The request object of each operation class and variant.
std::string RequestJson(OpKind kind, int variant) {
  static const int kShortTheta[kShortVariants] = {40, 48, 64};
  switch (kind) {
    case OpKind::kStream:
      if (variant == kFullVariant) return LargeMbp(5);
      return variant == 0 ? R"({"algo":"itraversal","k":1,"max":500})"
                          : R"({"algo":"itraversal","k":1,"theta_l":2,"theta_r":2,"max":500})";
    case OpKind::kShortCircuit:
    case OpKind::kChurn:
      return LargeMbp(kShortTheta[variant]);
    case OpKind::kThetaCount:
      return LargeMbp(10 + variant);
    case OpKind::kUpdate:
      break;
  }
  return "{}";
}

EnumerateRequest LargeMbpRequest(int theta) {
  EnumerateRequest r;
  r.algorithm = "large-mbp";
  r.k = kbiplex::KPair::Uniform(1);
  r.theta_left = r.theta_right = static_cast<size_t>(theta);
  return r;
}

/// The library request equivalent to the wire request of a dense stream
/// variant (used by the check's direct QuerySession).
EnumerateRequest StreamRequest(int variant) {
  if (variant == kFullVariant) return LargeMbpRequest(5);
  EnumerateRequest r;
  r.algorithm = "itraversal";
  r.k = kbiplex::KPair::Uniform(1);
  r.max_results = 500;
  if (variant == 1) r.theta_left = r.theta_right = 2;
  return r;
}

std::string QueryLine(uint64_t id, const char* graph, OpKind kind, int variant,
                      bool stream) {
  return "{\"op\":\"query\",\"id\":" + std::to_string(id) + ",\"graph\":\"" +
         graph + "\",\"emit\":\"" + (stream ? "solutions" : "count") +
         "\",\"request\":" + RequestJson(kind, variant) + "}";
}

std::string UpdateLine(uint64_t id, const UpdateBatch& b) {
  std::string s = "{\"op\":\"update\",\"id\":" + std::to_string(id) +
                  ",\"name\":\"comm\",\"insert\":[";
  for (size_t i = 0; i < b.insert.size(); ++i) {
    s += (i ? ",[" : "[") + std::to_string(b.insert[i].l) + "," +
         std::to_string(b.insert[i].r) + "]";
  }
  s += "],\"delete\":[";
  for (size_t i = 0; i < b.remove.size(); ++i) {
    s += (i ? ",[" : "[") + std::to_string(b.remove[i].l) + "," +
         std::to_string(b.remove[i].r) + "]";
  }
  return s + "]}";
}

/// Parses the id array following `key` ("left" or "right").
bool ParseIds(const std::string& line, const char* key,
              std::vector<uint32_t>* out) {
  out->clear();
  const std::string needle = std::string("\"") + key + "\":[";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && line[pos] != ']') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(line.c_str() + pos, &end, 10);
    if (end == line.c_str() + pos) return false;
    out->push_back(static_cast<uint32_t>(v));
    pos = static_cast<size_t>(end - line.c_str());
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return pos < line.size();
}

bool IsType(const std::string& line, const char* type) {
  return line.find(std::string("\"type\":\"") + type + "\"") != std::string::npos;
}

/// One client-observed round trip.
struct Exchange {
  bool ok = false;
  std::string terminal;
  uint64_t solution_lines = 0;
  uint64_t bytes = 0;
  double sent_at = 0;
  double first_line_at = 0;  // first solution line (0 = none)
  double done_at = 0;
  double max_gap = 0;        // largest gap between consecutive lines
  SolutionSet set;
};

/// Sends one command and reads to its terminal line, hashing streamed
/// solutions.
Exchange RoundTrip(kbiplex::serve::LineClient* client, const std::string& line,
                   Tracer* tracer, uint64_t request) {
  Exchange x;
  x.sent_at = NowSeconds();
  {
    ScopedSpan span(tracer, "serve.write", request);
    if (!client->SendLine(line)) {
      x.terminal = "send failed";
      return x;
    }
  }
  ScopedSpan span(tracer, "serve.read", request);
  std::string reply;
  std::vector<uint32_t> left, right;
  double last = x.sent_at;
  while (client->ReadLine(&reply)) {
    const double now = NowSeconds();
    x.bytes += reply.size() + 1;
    x.max_gap = std::max(x.max_gap, now - last);
    last = now;
    if (IsType(reply, "solution")) {
      if (x.solution_lines++ == 0) x.first_line_at = now;
      if (!ParseIds(reply, "left", &left) || !ParseIds(reply, "right", &right)) {
        x.terminal = "unparseable solution line";
        return x;
      }
      x.set.hashes.push_back(
          SolutionHash(left.data(), left.size(), right.data(), right.size()));
      continue;
    }
    x.done_at = now;
    x.terminal = reply;
    x.ok = true;
    x.set.Finish();
    return x;
  }
  x.terminal = "connection closed";
  return x;
}

struct OpRecord {
  OpKind kind;
  double latency_ms = 0;
  double engine_ms = 0;
  double connect_ms = 0;
  bool post_update = false;
  // A short-circuit-class query the server answered from the core bound:
  // its done line carries no "large_mbp" block, an engine run's does.
  bool short_circuited = false;
};

/// Everything one client thread observed.
struct ClientLog {
  std::vector<OpRecord> ops;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t bytes = 0;
  uint64_t solution_lines = 0;
  uint64_t updates_applied = 0;
  uint64_t rebuilt = 0;
  uint64_t epoch_end = 0;
  std::vector<double> apply_ms;
  // Distinct (count, set hash) observed per stream variant.
  std::set<std::pair<uint64_t, uint64_t>> stream_sets[kStreamVariants];
};

struct Shared {
  uint16_t port = 0;
  double deadline = 0;
  uint64_t seed = 0;
  const EdgeList* comm_base = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<uint64_t> next_id{1000};
  std::atomic<bool> pending_post_update{false};
};

/// The output check of one query reply of the mix; empty when it passes.
/// Count queries must run to completion; the first-500 streams stop at
/// their cap (completed:false) and must deliver exactly the done count
/// as solution lines; short-circuit queries must find nothing.
std::string QueryReplyError(const Exchange& x, OpKind kind) {
  const std::string what = std::string(OpKindName(kind)) + ": ";
  double solutions = -1;
  if (!x.ok || !IsType(x.terminal, "done") ||
      !FindNumber(x.terminal, "solutions", &solutions)) {
    return what + x.terminal.substr(0, 200);
  }
  const uint64_t done = static_cast<uint64_t>(solutions);
  if (kind == OpKind::kStream) {
    if (x.solution_lines != done) {
      return what + std::to_string(x.solution_lines) +
             " solution lines, done reports " + std::to_string(done);
    }
    if (done != 500) return what + std::to_string(done) + " solutions, not 500";
  } else if (x.terminal.find("\"completed\":true") == std::string::npos) {
    return what + "incomplete: " + x.terminal.substr(0, 200);
  }
  if ((kind == OpKind::kShortCircuit || kind == OpKind::kChurn) && done != 0)
    return what + "short-circuit query found " + std::to_string(done) + " solutions";
  return "";
}

void ClientLoop(int c, kbiplex::serve::LineClient* client, Shared* sh,
                ClientLog* log) {
  OpStream stream(sh->seed, c);
  while (NowSeconds() < sh->deadline) {
    const Op op = stream.Next();
    const uint64_t id = sh->next_id.fetch_add(1);
    ScopedSpan span(sh->tracer, OpKindName(op.kind), id);
    ++log->attempted;
    OpRecord rec{op.kind};
    Exchange x;
    if (op.kind == OpKind::kUpdate) {
      const UpdateBatch b =
          MakeUpdateBatch(*sh->comm_base, sh->seed, log->updates_applied);
      x = RoundTrip(client, UpdateLine(id, b), sh->tracer, id);
      double inserted = -1, deleted = -1, seconds = 0, epoch = 0;
      if (!x.ok || !IsType(x.terminal, "updated") ||
          !FindNumber(x.terminal, "inserted", &inserted) ||
          !FindNumber(x.terminal, "deleted", &deleted) ||
          inserted != static_cast<double>(b.insert.size()) ||
          deleted != static_cast<double>(b.remove.size())) {
        log->failures.push_back("update: " + x.terminal.substr(0, 200));
        continue;
      }
      FindNumber(x.terminal, "seconds", &seconds);
      FindNumber(x.terminal, "epoch", &epoch);
      ++log->updates_applied;
      log->rebuilt += x.terminal.find("\"rebuilt\":true") != std::string::npos;
      log->epoch_end = static_cast<uint64_t>(epoch);
      log->apply_ms.push_back(seconds * 1e3);
      rec.engine_ms = seconds * 1e3;
      sh->pending_post_update.store(true);
    } else {
      const bool on_dense = op.kind == OpKind::kStream;
      const bool streamed = on_dense;
      if (!on_dense) rec.post_update = sh->pending_post_update.exchange(false);
      const std::string line =
          QueryLine(id, on_dense ? "dense" : "comm", op.kind, op.variant, streamed);
      if (op.kind == OpKind::kChurn) {
        kbiplex::serve::LineClient fresh;
        const double t0 = NowSeconds();
        std::string err;
        {
          ScopedSpan connect(sh->tracer, "serve.connect", id);
          err = fresh.Connect("127.0.0.1", sh->port);
        }
        rec.connect_ms = (NowSeconds() - t0) * 1e3;
        if (!err.empty()) {
          log->failures.push_back("churn connect: " + err);
          continue;
        }
        x = RoundTrip(&fresh, line, sh->tracer, id);
        fresh.Close();
      } else {
        x = RoundTrip(client, line, sh->tracer, id);
      }
      const std::string error = QueryReplyError(x, op.kind);
      if (!error.empty()) {
        log->failures.push_back(error);
        continue;
      }
      double seconds = 0;
      FindNumber(x.terminal, "seconds", &seconds);
      rec.engine_ms = seconds * 1e3;
      rec.short_circuited = (op.kind == OpKind::kShortCircuit ||
                             op.kind == OpKind::kChurn) &&
                            x.terminal.find("\"large_mbp\"") == std::string::npos;
      if (streamed) {
        log->stream_sets[op.variant].insert({x.set.hashes.size(), x.set.SetHash()});
      }
      log->solution_lines += x.solution_lines;
    }
    log->bytes += x.bytes;
    rec.latency_ms = (x.done_at - x.sent_at) * 1e3;
    log->ops.push_back(rec);
  }
}

void Put(Metrics* m, const std::string& name, double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

std::string AbsolutePath(const std::string& path) {
  char buf[PATH_MAX];
  return realpath(path.c_str(), buf) != nullptr ? std::string(buf) : path;
}

}  // namespace

std::string CheckFakeStreamReply(uint64_t lines, uint64_t done) {
  // A one-shot loopback peer that answers any line with `lines` solution
  // lines and a done line claiming `done` solutions.
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 || bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      listen(listener, 1) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) close(listener);
    return "self-test: cannot listen";
  }
  std::thread peer([listener, lines, done] {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char c;
    while (read(fd, &c, 1) == 1 && c != '\n') {
    }
    std::string reply;
    for (uint64_t i = 0; i < lines; ++i) {
      reply += "{\"id\":1,\"type\":\"solution\",\"left\":[" + std::to_string(i) +
               "],\"right\":[0]}\n";
    }
    reply += "{\"id\":1,\"type\":\"done\",\"stats\":{\"solutions\":" +
             std::to_string(done) + ",\"completed\":false}}\n";
    for (size_t off = 0; off < reply.size();) {
      const ssize_t n = write(fd, reply.data() + off, reply.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    close(fd);
  });
  kbiplex::serve::LineClient client;
  Tracer tracer(false);
  std::string error = client.Connect("127.0.0.1", ntohs(addr.sin_port));
  if (error.empty()) {
    error = QueryReplyError(
        RoundTrip(&client, QueryLine(1, "dense", OpKind::kStream, 0, true), &tracer, 1),
        OpKind::kStream);
  }
  client.Close();
  shutdown(listener, SHUT_RDWR);  // unblocks accept() if connect failed
  peer.join();
  close(listener);
  return error;
}

void RunServe(const RunConfig& config, RunOutput* out) {
  Tracer tracer(config.trace);
  EdgeList comm_base;
  if (!ReadEdgeList(config.dir + "/comm.txt", &comm_base)) {
    out->Fail("cannot read comm.txt");
    return;
  }
  const std::string dense_path = AbsolutePath(config.dir + "/dense.txt");
  const std::string comm_path = AbsolutePath(config.dir + "/comm.txt");

  // ---- setup: Start + two wire loads + one warm query per graph,
  // repeated; the last server is kept.
  std::vector<double> setup_s;
  std::unique_ptr<kbiplex::serve::Server> server;
  kbiplex::serve::LineClient clients[kClients];
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) {
      clients[0].Close();
      server->RequestDrain();
      server->Wait();
      server.reset();
    }
    ScopedSpan setup_span(&tracer, "serve.setup");
    const double t0 = NowSeconds();
    kbiplex::serve::ServerOptions options;
    options.workers = kWorkers;
    server = std::make_unique<kbiplex::serve::Server>(options);
    std::string err;
    {
      ScopedSpan span(&tracer, "serve.start");
      err = server->Start();
    }
    if (err.empty()) err = clients[0].Connect("127.0.0.1", server->port());
    if (!err.empty()) {
      out->Fail("server start: " + err);
      return;
    }
    const std::pair<const char*, std::string> loads[] = {{"dense", dense_path},
                                                         {"comm", comm_path}};
    for (const auto& [name, path] : loads) {
      ScopedSpan span(&tracer, "serve.load");
      Exchange x = RoundTrip(&clients[0],
                             std::string("{\"op\":\"load\",\"id\":1,\"name\":\"") +
                                 name + "\",\"path\":\"" + path + "\"}",
                             &tracer, 1);
      if (!x.ok || !IsType(x.terminal, "loaded")) {
        out->Fail(std::string("load ") + name + ": " + x.terminal);
        return;
      }
    }
    {
      ScopedSpan span(&tracer, "serve.warm");
      Exchange a = RoundTrip(&clients[0], QueryLine(2, "dense", OpKind::kStream, 0, true),
                             &tracer, 2);
      Exchange b = RoundTrip(&clients[0],
                             QueryLine(3, "comm", OpKind::kShortCircuit, 0, false),
                             &tracer, 3);
      if (!a.ok || !b.ok || !IsType(a.terminal, "done") ||
          !IsType(b.terminal, "done")) {
        out->Fail("warm query: " + a.terminal + b.terminal);
        return;
      }
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  for (int c = 1; c < kClients; ++c) {
    const std::string err = clients[c].Connect("127.0.0.1", server->port());
    if (!err.empty()) {
      out->Fail("client connect: " + err);
      return;
    }
  }

  // ---- the closed loop.
  ResourceSample("before");
  Shared shared;
  shared.port = server->port();
  shared.seed = config.seed;
  shared.comm_base = &comm_base;
  shared.tracer = &tracer;
  ClientLog logs[kClients];
  const double loop_start = NowSeconds();
  shared.deadline = loop_start + config.seconds;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back(ClientLoop, c, &clients[c], &shared, &logs[c]);
    for (std::thread& t : threads) t.join();
  }
  const double loop_s = NowSeconds() - loop_start;
  ResourceSample("after");
  const kbiplex::serve::AdmissionQueue::Counters admission =
      server->admission_counters();

  // ---- complete streamed enumerations of `dense` through the wire
  // (timed: enum_s, first_output_s, max_delay_s), then one of the final
  // `comm` epoch (untimed: its set is checked against a fresh Prepare).
  std::vector<double> enum_s, first_s, delay_s;
  std::set<std::pair<uint64_t, uint64_t>> full_sets;
  double full_work_units = 0, full_solutions = 0;
  for (int rep = 0; rep < kFullReps; ++rep) {
    ++out->attempted;
    const uint64_t id = 10 + static_cast<uint64_t>(rep);
    ScopedSpan span(&tracer, "serve.full", id);
    Exchange x = RoundTrip(
        &clients[0], QueryLine(id, "dense", OpKind::kStream, kFullVariant, true),
        &tracer, id);
    if (!x.ok || !IsType(x.terminal, "done") ||
        !FindNumber(x.terminal, "solutions", &full_solutions) ||
        x.solution_lines != static_cast<uint64_t>(full_solutions)) {
      out->Fail("full query: " + x.terminal.substr(0, 200));
      continue;
    }
    FindNumber(x.terminal, "work_units", &full_work_units);
    enum_s.push_back(x.done_at - x.sent_at);
    first_s.push_back((x.solution_lines ? x.first_line_at : x.done_at) - x.sent_at);
    delay_s.push_back(x.max_gap);
    full_sets.insert({x.set.hashes.size(), x.set.SetHash()});
  }
  SolutionSet final_set;
  {
    ++out->attempted;
    Exchange x = RoundTrip(&clients[0],
                           "{\"op\":\"query\",\"id\":20,\"graph\":\"comm\","
                           "\"request\":" + LargeMbp(kFinalCommTheta) + "}",
                           &tracer, 20);
    double solutions = -1;
    if (!x.ok || !IsType(x.terminal, "done") ||
        !FindNumber(x.terminal, "solutions", &solutions) ||
        x.solution_lines != static_cast<uint64_t>(solutions)) {
      out->Fail("final comm query: " + x.terminal.substr(0, 200));
    }
    final_set = std::move(x.set);
  }
  for (auto& client : clients) client.Close();
  server->RequestDrain();
  server->Wait();
  server.reset();

  // ---- merge the client logs.
  std::vector<double> query_ms, engine_ms, overhead_ms, stream_overhead_ms,
      short_ms, connect_ms, post_update_ms, update_ms, apply_ms;
  uint64_t completed = 0, bytes = 0, lines = 0, updates = 0, rebuilt = 0,
           epoch_end = 0, short_class = 0, short_hits = 0;
  std::set<std::pair<uint64_t, uint64_t>> stream_sets[kDenseChecked];
  stream_sets[kFullVariant] = full_sets;
  for (ClientLog& log : logs) {
    out->attempted += log.attempted;
    for (const std::string& f : log.failures) out->Fail(f);
    bytes += log.bytes;
    lines += log.solution_lines;
    updates += log.updates_applied;
    rebuilt += log.rebuilt;
    epoch_end = std::max(epoch_end, log.epoch_end);
    apply_ms.insert(apply_ms.end(), log.apply_ms.begin(), log.apply_ms.end());
    for (int v = 0; v < kStreamVariants; ++v)
      stream_sets[v].insert(log.stream_sets[v].begin(), log.stream_sets[v].end());
    for (const OpRecord& r : log.ops) {
      ++completed;
      if (r.kind == OpKind::kUpdate) {
        update_ms.push_back(r.latency_ms);
        continue;
      }
      query_ms.push_back(r.latency_ms);
      engine_ms.push_back(r.engine_ms);
      overhead_ms.push_back(r.latency_ms - r.engine_ms);
      if (r.kind == OpKind::kStream) stream_overhead_ms.push_back(r.latency_ms - r.engine_ms);
      if (r.kind == OpKind::kShortCircuit || r.kind == OpKind::kChurn) {
        ++short_class;
        short_hits += r.short_circuited;
      }
      if (r.kind == OpKind::kShortCircuit && r.short_circuited)
        short_ms.push_back(r.latency_ms);
      if (r.kind == OpKind::kChurn) connect_ms.push_back(r.connect_ms);
      if (r.post_update) post_update_ms.push_back(r.latency_ms);
    }
  }

  // ---- check data: the update count, the observed stream sets, and
  // (hashes.bin) the final epoch's solution set.
  std::string check = "updates " + std::to_string(updates) + "\n";
  for (int v = 0; v < kDenseChecked; ++v) {
    if (stream_sets[v].size() > 1) {
      out->Fail("stream variant " + std::to_string(v) + ": " +
                std::to_string(stream_sets[v].size()) + " different solution sets");
    }
    for (const auto& [count, hash] : stream_sets[v]) {
      check += "stream " + std::to_string(v) + " " + std::to_string(count) +
               " " + std::to_string(hash) + "\n";
    }
  }
  if (!WriteText(config.dir + "/serve_check.txt", check))
    out->Fail("cannot write serve_check.txt");
  if (!WriteHashes(final_set, config.dir + "/hashes.bin"))
    out->Fail("cannot write hashes.bin");

  // ---- metrics.
  auto median = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  Metrics& e2e = out->end_to_end;
  Put(&e2e, "setup_s", median(setup_s), "s");
  // The 90th percentile of the timed enumerations, as on the batch
  // workloads: it repeats across runs where the median does not.
  Put(&e2e, "enum_s", Quantile(enum_s, 0.9), "s");
  Put(&out->per_layer, "enum_samples", static_cast<double>(enum_s.size()), "count");
  Put(&out->per_layer, "first_output_s", median(first_s), "s");
  Put(&out->per_layer, "max_delay_s", median(delay_s), "s");
  Put(&e2e, "requests_per_s", static_cast<double>(completed) / loop_s, "1/s");
  Put(&out->per_layer, "query_p50_ms", median(query_ms), "ms");
  Put(&e2e, "query_p90_ms", Quantile(query_ms, 0.9), "ms");
  Put(&out->per_layer, "query_p99_ms", Quantile(query_ms, 0.99), "ms");
  Put(&out->per_layer, "update_p50_ms", median(update_ms), "ms");
  Put(&out->per_layer, "update_p90_ms", Quantile(update_ms, 0.9), "ms");

  Metrics& layer = out->per_layer;
  Put(&layer, "serve.queries", static_cast<double>(query_ms.size()), "count");
  Put(&layer, "serve.engine_ms_p50", median(engine_ms), "ms");
  Put(&layer, "serve.engine_ms_p99", Quantile(engine_ms, 0.99), "ms");
  Put(&layer, "serve.overhead_ms_p50", median(overhead_ms), "ms");
  Put(&layer, "serve.overhead_ms_p99", Quantile(overhead_ms, 0.99), "ms");
  Put(&layer, "serve.stream_overhead_ms_p50", median(stream_overhead_ms), "ms");
  Put(&layer, "serve.short_circuit_ms_p50", median(short_ms), "ms");
  Put(&layer, "serve.short_circuit_hits", static_cast<double>(short_hits), "count");
  Put(&layer, "serve.short_circuit_hit_frac",
      short_class == 0 ? 0
                       : static_cast<double>(short_hits) / static_cast<double>(short_class),
      "ratio");
  Put(&layer, "serve.connect_ms_p50", median(connect_ms), "ms");
  Put(&layer, "serve.bytes_received", static_cast<double>(bytes), "bytes");
  Put(&layer, "serve.solution_lines", static_cast<double>(lines), "count");
  Put(&layer, "serve.admitted", static_cast<double>(admission.admitted), "count");
  Put(&layer, "serve.rejected_overload",
      static_cast<double>(admission.rejected_overload), "count");
  Put(&layer, "serve.post_update_query_ms_p50", median(post_update_ms), "ms");
  Put(&layer, "update.count", static_cast<double>(updates), "count");
  Put(&layer, "update.apply_ms_p50", median(apply_ms), "ms");
  Put(&layer, "update.apply_ms_p90", Quantile(apply_ms, 0.9), "ms");
  Put(&layer, "update.rebuilt_frac",
      updates == 0 ? 0 : static_cast<double>(rebuilt) / static_cast<double>(updates),
      "ratio");
  Put(&layer, "update.epoch_end", static_cast<double>(epoch_end), "count");
  Put(&layer, "core.work_units", full_work_units, "count");
  Put(&layer, "core.solutions", full_solutions, "count");

  out->spans = tracer.Summary();
  if (config.trace && !tracer.Write(config.dir + "/trace.json"))
    out->Fail("cannot write trace.json");
}

uint64_t CheckServe(const RunConfig& config, std::vector<std::string>* failures) {
  EdgeList dense, comm;
  if (!ReadEdgeList(config.dir + "/dense.txt", &dense) ||
      !ReadEdgeList(config.dir + "/comm.txt", &comm)) {
    failures->push_back("cannot read the input graphs");
    return 1;
  }
  // serve_check.txt: "updates N", then "stream <variant> <count> <hash>"
  // for every distinct set a stream variant was served.
  unsigned long long applied = 0;
  std::vector<std::pair<int, std::pair<uint64_t, uint64_t>>> observed;
  {
    FILE* f = std::fopen((config.dir + "/serve_check.txt").c_str(), "r");
    if (f == nullptr || std::fscanf(f, "updates %llu\n", &applied) != 1) {
      if (f != nullptr) std::fclose(f);
      failures->push_back("cannot read serve_check.txt");
      return 1;
    }
    int v;
    unsigned long long count, hash;
    while (std::fscanf(f, "stream %d %llu %llu\n", &v, &count, &hash) == 3) {
      observed.push_back({v, {count, hash}});
    }
    std::fclose(f);
  }
  uint64_t checks = 0;

  auto collect = [&](const EdgeList& g, const EnumerateRequest& request,
                     const char* what, SolutionSet* set) {
    Oracle oracle(g);
    auto prepared = kbiplex::PreparedGraph::Prepare(ToGraph(g));
    kbiplex::QuerySession session(prepared);
    uint64_t bad = 0;
    auto stats = session.Run(request, [&](const Biplex& b) {
      set->hashes.push_back(SolutionHash(b.left.data(), b.left.size(),
                                         b.right.data(), b.right.size()));
      const std::string why = oracle.Check(b.left, b.right, request.k.left,
                                           request.theta_left, request.theta_right);
      if (!why.empty() && ++bad <= 3)
        failures->push_back(std::string(what) + ": reference solution " + why);
      return true;
    });
    if (!stats.ok()) failures->push_back(std::string(what) + ": " + stats.error);
    set->Finish();
    checks += set->hashes.size();
  };

  // Queries on `dense`, which no update touches, must match a direct
  // QuerySession.
  for (int v = 0; v < kDenseChecked; ++v) {
    SolutionSet expected;
    collect(dense, StreamRequest(v), "stream", &expected);
    for (const auto& [variant, set] : observed) {
      if (variant != v) continue;
      ++checks;
      if (set.first != expected.hashes.size() || set.second != expected.SetHash()) {
        failures->push_back("stream variant " + std::to_string(v) +
                            ": served set differs from a direct QuerySession");
      }
    }
  }

  // The final `comm` epoch must enumerate what a fresh Prepare of the
  // final edge list enumerates.
  SolutionSet served, fresh;
  if (!ReadHashes(config.dir + "/hashes.bin", &served)) {
    failures->push_back("cannot read hashes.bin");
    return checks + 1;
  }
  collect(GraphAfterUpdates(comm, config.seed, applied),
          LargeMbpRequest(kFinalCommTheta), "final",
          &fresh);
  CompareSets("final comm epoch", served, fresh, failures);
  return checks + 1;
}

}  // namespace kbench
