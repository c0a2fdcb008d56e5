// Concurrency stress tests sized for ThreadSanitizer in CI: many threads
// hammering the two shared-state hot spots at once —
//
//   1. the serving daemon: concurrent query clients racing a load/evict
//      flapper and a stats/list poller, so registry generations, admission
//      counters, the stats aggregator, and connection teardown all
//      interleave;
//   2. one PreparedGraph under many interleaved QuerySessions, so the
//      lazy call_once artifact builds (execution graph, components,
//      component subgraphs, core bound) race from every direction;
//   3. the incremental update path: wire updaters publishing new epochs
//      while query clients, a load/evict flapper, and stats pollers race
//      the registry's copy-on-write publish and epoch retirement.
//
// These tests assert protocol- and result-level invariants, but their main
// job is giving TSan (cmake -DKBIPLEX_TSAN=ON) real interleavings to
// check; keep them fast enough for sanitizer CI (a few seconds each).

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_session.h"
#include "graph/graph_io.h"
#include "serve/client.h"
#include "serve/graph_registry.h"
#include "serve/server.h"
#include "update/update_batch.h"
#include "util/json_value.h"

namespace kbiplex {
namespace serve {
namespace {

constexpr const char* kToyGraphPath = KBIPLEX_SOURCE_DIR "/ci/toy_graph.txt";

/// Same pseudo-random half-dense 24x24 graph as serve_test.cc: its
/// 2-biplex enumeration reliably outlives any small budget, so short
/// budgeted queries keep the workers busy for the whole stress window.
BipartiteGraph DenseGraph() {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < 24; ++l)
    for (VertexId r = 0; r < 24; ++r)
      if ((l * 31 + r * 17 + l * r) % 97 < 55) edges.push_back({l, r});
  return BipartiteGraph::FromEdges(24, 24, std::move(edges));
}

/// The terminal type of a response line, "" when it does not parse.
std::string TypeOf(const std::string& line) {
  json::ParseResult parsed = json::Parse(line);
  if (!parsed.ok()) return "";
  const json::JsonValue* type = parsed.value.Find("type");
  return (type != nullptr && type->is_string()) ? type->AsString() : "";
}

/// Sends one command line and reads through the terminal response,
/// returning its type. Solution lines are consumed and discarded.
std::string RoundTripType(LineClient* client, const std::string& line) {
  if (!client->SendLine(line)) return "";
  std::string reply;
  while (client->ReadLine(&reply)) {
    const std::string type = TypeOf(reply);
    if (type != "solution") return type;
  }
  return "";
}

TEST(ConcurrencyStress, ServerSurvivesQueryEvictStatsCrossfire) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 8;
  Server server(options);
  server.registry().Add("dense", DenseGraph(), options.prepare);
  ASSERT_EQ(server.Start(), "");

  constexpr int kQueryClients = 4;
  constexpr int kRoundsPerClient = 12;
  std::atomic<int> protocol_failures{0};
  std::atomic<int> done_responses{0};
  std::atomic<bool> stop_pollers{false};
  std::vector<std::thread> threads;

  // Query clients: budgeted queries against the stable graph plus
  // queries against the flapping one (those may hit 404 mid-evict, 429
  // under queue pressure — all are valid protocol outcomes; what is NOT
  // valid is an unparsable or missing terminal line).
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).empty()) {
        ++protocol_failures;
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        const bool flap_target = (round % 3) == 2;
        const std::string id =
            std::to_string(c) + "-" + std::to_string(round);
        const std::string line =
            "{\"op\":\"query\",\"id\":\"" + id + "\",\"graph\":\"" +
            (flap_target ? "flap" : "dense") +
            "\",\"emit\":\"count\",\"request\":{\"algo\":\"itraversal\","
            "\"k\":2,\"budget_s\":0.01}}";
        const std::string type = RoundTripType(&client, line);
        if (type == "done") {
          ++done_responses;
        } else if (type != "error") {  // 404/429 arrive as error lines
          ++protocol_failures;
        }
      }
    });
  }

  // Load/evict flapper: races graph generations against the queries above.
  threads.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).empty()) {
      ++protocol_failures;
      return;
    }
    const std::string load_line =
        std::string("{\"op\":\"load\",\"id\":\"flap-load\",\"name\":"
                    "\"flap\",\"path\":\"") +
        kToyGraphPath + "\"}";
    for (int round = 0; round < 30; ++round) {
      if (RoundTripType(&client, load_line) != "loaded") ++protocol_failures;
      const std::string evicted = RoundTripType(
          &client, "{\"op\":\"evict\",\"id\":\"flap-evict\",\"name\":"
                   "\"flap\"}");
      // The evict can race another flapper round only in spirit (this is
      // the lone flapper), so anything but "evicted" is a failure.
      if (evicted != "evicted") ++protocol_failures;
    }
  });

  // Stats pollers: the wire stats/list ops plus the in-process accessors,
  // all racing the mutating threads above.
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).empty()) {
        ++protocol_failures;
        return;
      }
      const std::string line = (p == 0)
                                   ? "{\"op\":\"stats\",\"id\":\"poll\"}"
                                   : "{\"op\":\"list\",\"id\":\"poll\"}";
      const std::string want = (p == 0) ? "stats" : "graphs";
      while (!stop_pollers.load()) {
        if (RoundTripType(&client, line) != want) ++protocol_failures;
        (void)server.admission_counters();
        (void)server.stats().Total();
      }
    });
  }

  // Join the bounded threads (clients + flapper), then stop the pollers.
  for (size_t i = 0; i < threads.size() - 2; ++i) threads[i].join();
  stop_pollers.store(true);
  threads[threads.size() - 2].join();
  threads[threads.size() - 1].join();

  EXPECT_EQ(protocol_failures.load(), 0);
  // The stable graph never flaps, so at least its queries completed.
  EXPECT_GE(done_responses.load(), kQueryClients * kRoundsPerClient / 2);

  server.RequestDrain();
  server.Wait();

  // Post-drain, the aggregator totals must be coherent: every "done"
  // terminal the clients saw was recorded.
  EXPECT_GE(server.stats().Total().requests,
            static_cast<uint64_t>(done_responses.load()));
}

TEST(ConcurrencyStress, UpdatersRaceQueriesAndEvictions) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 8;
  Server server(options);
  server.registry().Add("dense", DenseGraph(), options.prepare);
  ASSERT_EQ(server.Start(), "");

  constexpr int kQueryClients = 3;
  constexpr int kRoundsPerClient = 10;
  std::atomic<int> protocol_failures{0};
  std::atomic<int> updated_responses{0};
  std::atomic<bool> stop_pollers{false};
  std::vector<std::thread> threads;

  // Query clients against the graph the updaters mutate: a query may run
  // on any epoch (each worker session snapshots one), but every terminal
  // must be a parsable done/error line.
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).empty()) {
        ++protocol_failures;
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        const std::string id =
            std::to_string(c) + "-" + std::to_string(round);
        const std::string line =
            "{\"op\":\"query\",\"id\":\"" + id +
            "\",\"graph\":\"dense\",\"emit\":\"count\",\"request\":"
            "{\"algo\":\"itraversal\",\"k\":2,\"budget_s\":0.01}}";
        const std::string type = RoundTripType(&client, line);
        if (type != "done" && type != "error") ++protocol_failures;
      }
    });
  }

  // Updaters: one toggles edges of the stable graph (every round must end
  // in "updated" — updates serialize per graph and nothing evicts it);
  // the other targets the flapping graph, where "updated" races 404
  // (evicted mid-apply) and 409 (reloaded mid-apply) — all three are
  // valid, anything else is a protocol failure.
  threads.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).empty()) {
      ++protocol_failures;
      return;
    }
    for (int round = 0; round < 20; ++round) {
      const bool odd = (round % 2) != 0;
      const std::string line =
          std::string("{\"op\":\"update\",\"id\":\"upd\",\"name\":"
                      "\"dense\",") +
          (odd ? "\"insert\"" : "\"delete\"") +
          ":[[0,23],[1,22]],\"options\":{\"max_delta_fraction\":1.0}}";
      const std::string type = RoundTripType(&client, line);
      if (type == "updated") {
        ++updated_responses;
      } else {
        ++protocol_failures;
      }
    }
  });
  threads.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).empty()) {
      ++protocol_failures;
      return;
    }
    for (int round = 0; round < 20; ++round) {
      const std::string type = RoundTripType(
          &client,
          "{\"op\":\"update\",\"id\":\"flapupd\",\"name\":\"flap\","
          "\"insert\":[[0,1]]}");
      if (type != "updated" && type != "error") ++protocol_failures;
    }
  });

  // Load/evict flapper racing the second updater's target.
  threads.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).empty()) {
      ++protocol_failures;
      return;
    }
    const std::string load_line =
        std::string("{\"op\":\"load\",\"id\":\"flap-load\",\"name\":"
                    "\"flap\",\"path\":\"") +
        kToyGraphPath + "\"}";
    for (int round = 0; round < 20; ++round) {
      if (RoundTripType(&client, load_line) != "loaded") ++protocol_failures;
      if (RoundTripType(&client,
                        "{\"op\":\"evict\",\"id\":\"flap-evict\",\"name\":"
                        "\"flap\"}") != "evicted")
        ++protocol_failures;
    }
  });

  // Stats poller: exercises the per-graph epoch/retirement reporting
  // (PendingRetiredEpochs walks the weak trackers) against the races.
  threads.emplace_back([&] {
    LineClient client;
    if (!client.Connect("127.0.0.1", server.port()).empty()) {
      ++protocol_failures;
      return;
    }
    while (!stop_pollers.load()) {
      if (RoundTripType(&client, "{\"op\":\"stats\",\"id\":\"poll\"}") !=
          "stats")
        ++protocol_failures;
      (void)server.registry().PendingRetiredEpochs("dense");
    }
  });

  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop_pollers.store(true);
  threads.back().join();

  EXPECT_EQ(protocol_failures.load(), 0);
  EXPECT_EQ(updated_responses.load(), 20);
  // The stable graph's final epoch reflects every serialized update.
  const auto entry = server.registry().Get("dense");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->prepared->lineage().updates_applied, 20u);

  server.RequestDrain();
  server.Wait();
}

TEST(ConcurrencyStress, RetiredEpochStaysAliveWhileBorrowed) {
  GraphRegistry registry;
  registry.Add("g", DenseGraph(), PrepareOptions());

  // Borrow the current epoch the way an in-flight query would.
  std::shared_ptr<const PreparedGraph> borrowed =
      registry.Get("g")->prepared;
  EXPECT_EQ(registry.PendingRetiredEpochs("g"), 0u);

  update::UpdateBatch batch;
  batch.Remove(0, 23);
  batch.Insert(0, 23);  // noop round-trip keeps the edge set stable
  const UpdateApplyOutcome outcome =
      registry.ApplyUpdates("g", batch, update::UpdateOptions());
  ASSERT_TRUE(outcome.ok()) << outcome.error;

  // The replaced epoch is retired but pinned by the borrower...
  EXPECT_EQ(registry.PendingRetiredEpochs("g"), 1u);
  EXPECT_NE(registry.Get("g")->prepared.get(), borrowed.get());
  {
    // ...and still fully usable (the session takes its own pin).
    QuerySession session(borrowed);
    EnumerateRequest request;
    request.algorithm = "itraversal";
    request.time_budget_seconds = 0.05;
    EnumerateStats stats;
    session.Count(request, &stats);
    EXPECT_TRUE(stats.error.empty()) << stats.error;
  }

  // Releasing the borrow lets the epoch die; the tracker observes it.
  borrowed.reset();
  EXPECT_EQ(registry.PendingRetiredEpochs("g"), 0u);
}

TEST(ConcurrencyStress, InterleavedSessionsRaceLazyArtifactsOnce) {
  LoadResult loaded = LoadEdgeList(kToyGraphPath);
  ASSERT_TRUE(loaded.ok());
  PrepareOptions prepare;
  prepare.renumber = true;
  prepare.adjacency_index = AdjacencyAccelMode::kAuto;
  auto prepared = PreparedGraph::Prepare(std::move(*loaded.graph), prepare);

  EnumerateRequest request;
  request.algorithm = "itraversal";
  request.k = KPair::Uniform(1);

  // The reference answer, computed before any artifact exists would
  // defeat the race — so compute it on a second, independent prepare.
  LoadResult reference_load = LoadEdgeList(kToyGraphPath);
  ASSERT_TRUE(reference_load.ok());
  auto reference_prepared =
      PreparedGraph::Prepare(std::move(*reference_load.graph), prepare);
  QuerySession reference(reference_prepared);
  std::vector<Biplex> expected = reference.Collect(request, nullptr);
  std::sort(expected.begin(), expected.end());
  ASSERT_FALSE(expected.empty());

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread races the lazy builds through a different first
      // touch: artifact accessors directly, or a session query.
      switch (t % 4) {
        case 0: prepared->Warmup(); break;
        case 1: prepared->Components(); break;
        case 2: (void)prepared->MaxUniformCore(); break;
        default: break;
      }
      QuerySession session(prepared);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        std::vector<Biplex> got = session.Collect(request, nullptr);
        std::sort(got.begin(), got.end());
        if (got != expected) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // However many sessions raced, each artifact was built at most once.
  const PrepareArtifactStats stats = prepared->artifact_stats();
  EXPECT_LE(stats.execution_graph_builds, 1);
  EXPECT_LE(stats.core_bound_builds, 1);
  EXPECT_EQ(stats.execution_graph_builds, 1);  // someone touched it
}

}  // namespace
}  // namespace serve
}  // namespace kbiplex
