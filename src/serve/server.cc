#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <utility>

#include "api/query_session.h"
#include "util/json.h"

namespace kbiplex {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

// A line longer than this is a protocol violation, not a big request;
// cutting the connection bounds per-connection buffer memory.
constexpr size_t kMaxLineBytes = 1 << 20;

}  // namespace

// Declared in admission.h. Sessions are keyed (graph name, generation) so
// an evict or reload naturally invalidates: the next query misses, drops
// every stale generation of that name, and builds against the new one.
struct WorkerContext {
  std::map<std::pair<std::string, uint64_t>, std::unique_ptr<QuerySession>>
      sessions;
};

struct Server::Connection {
  Mutex mu;  // guards fd lifecycle and serializes writes
  int fd KBIPLEX_GUARDED_BY(mu) = -1;
  std::atomic<bool> alive{true};
  /// Set by the connection thread as its last statement, so the acceptor
  /// can join it without blocking. `alive` cannot serve: a failed write
  /// clears it while the thread is still running.
  std::atomic<bool> exited{false};

  /// The socket, for the owning connection thread's recv loop. Only that
  /// thread ever closes the fd (CloseFd, at loop exit), so the value it
  /// reads here stays valid for the duration of the loop.
  int Fd() {
    MutexLock lock(&mu);
    return fd;
  }

  /// Sends `line` plus the newline frame. False once the peer is gone —
  /// the streaming sink uses that to stop the enumeration.
  bool WriteLine(const std::string& line) {
    MutexLock lock(&mu);
    if (!alive.load() || fd < 0) return false;
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        alive.store(false);
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Kicks a connection thread out of recv() without freeing the fd (the
  /// owning thread still holds it); safe against concurrent writes.
  void ShutdownBoth() {
    MutexLock lock(&mu);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }

  /// Final close by the owning connection thread.
  void CloseFd() {
    MutexLock lock(&mu);
    alive.store(false);
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

namespace {

/// Streams each accepted solution as one wire line. A failed write (peer
/// hung up) returns false, which stops the enumeration — no point
/// computing solutions nobody reads. "emit":"count" queries accept
/// without writing; the solution count still arrives in the done stats.
class WireSink final : public SolutionSink {
 public:
  WireSink(Server::Connection* conn, std::string id, bool count_only)
      : conn_(conn), id_(std::move(id)), count_only_(count_only) {}

  bool Accept(const Biplex& solution) override {
    if (count_only_) return true;
    return conn_->WriteLine(SolutionLine(id_, solution));
  }

  // Parallel runs serialize Accept calls, and the connection write lock
  // makes the write itself thread-agnostic.
  bool ThreadCompatible() const override { return true; }

 private:
  Server::Connection* conn_;
  std::string id_;
  bool count_only_;
};

}  // namespace

// Cancels request tokens when their wire deadline passes: a min-heap of
// (deadline, token) serviced by one thread sleeping until the earliest
// entry. Tokens are held as shared_ptrs, so an entry whose request
// already finished cancels a token nobody reads — cheap and harmless.
class Server::DeadlineReaper {
 public:
  DeadlineReaper() : thread_([this] { Loop(); }) {}

  ~DeadlineReaper() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

  void Schedule(Clock::time_point when,
                std::shared_ptr<CancellationToken> token)
      KBIPLEX_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      heap_.push(Entry{when, std::move(token)});
    }
    cv_.NotifyAll();
  }

 private:
  struct Entry {
    Clock::time_point when;
    std::shared_ptr<CancellationToken> token;
    bool operator>(const Entry& other) const { return when > other.when; }
  };

  void Loop() KBIPLEX_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!stop_) {
      if (heap_.empty()) {
        cv_.Wait(&mu_);
        continue;
      }
      const Clock::time_point next = heap_.top().when;
      if (Clock::now() < next) {
        cv_.WaitUntil(&mu_, next);
        continue;
      }
      while (!heap_.empty() && heap_.top().when <= Clock::now()) {
        heap_.top().token->Cancel();
        heap_.pop();
      }
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_
      KBIPLEX_GUARDED_BY(mu_);
  bool stop_ KBIPLEX_GUARDED_BY(mu_) = false;
  std::thread thread_;  // last: starts in the constructor
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(std::make_unique<AdmissionQueue>(
          std::max<size_t>(1, options_.queue_capacity))) {}

Server::~Server() {
  if (started_) {
    RequestDrain();
    Wait();
  }
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

std::string Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return std::string("socket: ") + std::strerror(errno);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const std::string err = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string err = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const std::string err = std::string("getsockname: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }
  port_ = ntohs(bound.sin_port);
  if (::pipe(wake_pipe_) != 0) {
    const std::string err = std::string("pipe: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return err;
  }

  reaper_ = std::make_unique<DeadlineReaper>();
  const size_t workers = std::max<size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return "";
}

void Server::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (draining_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    {
      // No other thread can see `conn` yet, but the analysis (rightly)
      // demands the lock for the guarded write.
      MutexLock fd_lock(&conn->mu);
      conn->fd = fd;
    }
    ++open_connections_;
    MutexLock lock(&conn_mu_);
    // Join the threads of connections that already ended, so a long-lived
    // daemon keeps one thread (and one mapped stack) per open connection,
    // not per connection it ever accepted.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->conn->exited.load()) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    connections_.push_back(
        {conn, std::thread([this, conn] { ConnectionLoop(conn); })});
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  // Stable for the whole loop: only this thread closes the fd, below.
  const int fd = conn->Fd();
  std::string buffer;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      const size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) HandleLine(conn, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      conn->WriteLine(ErrorLine("null", kBadRequest, "line too long"));
      break;
    }
  }
  conn->CloseFd();
  --open_connections_;
  conn->exited.store(true);
}

void Server::HandleLine(const std::shared_ptr<Connection>& conn,
                        const std::string& line) {
  WireCommand cmd;
  const std::string err = ParseCommand(line, &cmd);
  if (!err.empty()) {
    conn->WriteLine(ErrorLine(cmd.id, kBadRequest, err));
    return;
  }

  if (cmd.op == "query") {
    HandleQuery(conn, std::move(cmd));
    return;
  }
  if (cmd.op == "load") {
    PrepareOptions prepare = options_.prepare;
    if (cmd.renumber) prepare.renumber = true;
    if (cmd.accel_budget != 0) {
      prepare.accel_budget_bytes = static_cast<size_t>(cmd.accel_budget);
    }
    const std::string load_err = registry_.LoadFile(cmd.graph, cmd.path, prepare);
    if (!load_err.empty()) {
      conn->WriteLine(ErrorLine(cmd.id, kBadRequest, load_err));
      return;
    }
    const auto entry = registry_.Get(cmd.graph);
    std::ostringstream body;
    body << "\"graph\":";
    json::AppendEscaped(body, cmd.graph);
    if (entry) {
      const BipartiteGraph& g = entry->prepared->graph();
      body << ",\"left\":" << g.NumLeft() << ",\"right\":" << g.NumRight()
           << ",\"edges\":" << g.NumEdges()
           << ",\"generation\":" << entry->generation;
    }
    conn->WriteLine(ResponseLine(cmd.id, "loaded", body.str()));
    return;
  }
  if (cmd.op == "update") {
    update::UpdateBatch batch;
    for (const auto& [l, r] : cmd.insert_edges) batch.Insert(l, r);
    for (const auto& [l, r] : cmd.erase_edges) batch.Remove(l, r);
    update::UpdateOptions opts;
    if (cmd.max_delta_fraction >= 0) {
      opts.max_delta_fraction = cmd.max_delta_fraction;
    }
    opts.force_rebuild = cmd.force_rebuild;
    // The apply itself runs on the connection thread, outside the
    // registry lock — concurrent queries keep their snapshot and are
    // never blocked; updates to the same graph serialize in the registry.
    const UpdateApplyOutcome outcome =
        registry_.ApplyUpdates(cmd.graph, batch, opts);
    if (!outcome.ok()) {
      conn->WriteLine(ErrorLine(cmd.id, outcome.error_code, outcome.error));
      return;
    }
    const update::UpdateResult& r = outcome.result;
    std::ostringstream body;
    body << "\"graph\":";
    json::AppendEscaped(body, cmd.graph);
    body << ",\"generation\":" << outcome.generation
         << ",\"epoch\":" << r.prepared->epoch()
         << ",\"inserted\":" << r.edges_inserted
         << ",\"deleted\":" << r.edges_deleted
         << ",\"noop_inserts\":" << r.noop_inserts
         << ",\"noop_deletes\":" << r.noop_deletes
         << ",\"rebuilt\":" << json::Bool(r.rebuilt) << ",\"seconds\":";
    json::AppendDouble(body, r.seconds);
    conn->WriteLine(ResponseLine(cmd.id, "updated", body.str()));
    return;
  }
  if (cmd.op == "evict") {
    if (!registry_.Evict(cmd.graph)) {
      conn->WriteLine(ErrorLine(cmd.id, kUnknownGraph,
                                "unknown graph '" + cmd.graph + "'"));
      return;
    }
    std::ostringstream body;
    body << "\"graph\":";
    json::AppendEscaped(body, cmd.graph);
    conn->WriteLine(ResponseLine(cmd.id, "evicted", body.str()));
    return;
  }
  if (cmd.op == "list") {
    std::ostringstream body;
    body << "\"graphs\":[";
    bool first = true;
    for (const auto& [name, entry] : registry_.List()) {
      if (!first) body << ',';
      first = false;
      const BipartiteGraph& g = entry.prepared->graph();
      body << "{\"name\":";
      json::AppendEscaped(body, name);
      body << ",\"left\":" << g.NumLeft() << ",\"right\":" << g.NumRight()
           << ",\"edges\":" << g.NumEdges()
           << ",\"generation\":" << entry.generation << ",\"path\":";
      json::AppendEscaped(body, entry.path);
      body << '}';
    }
    body << ']';
    conn->WriteLine(ResponseLine(cmd.id, "graphs", body.str()));
    return;
  }
  if (cmd.op == "stats") {
    conn->WriteLine(ResponseLine(cmd.id, "stats", ServerStatsBody()));
    return;
  }
  if (cmd.op == "ping") {
    std::ostringstream body;
    body << "\"uptime_s\":";
    json::AppendDouble(body, uptime_.ElapsedSeconds());
    conn->WriteLine(ResponseLine(cmd.id, "pong", body.str()));
    return;
  }
  if (cmd.op == "drain") {
    conn->WriteLine(ResponseLine(cmd.id, "draining"));
    RequestDrain();
    return;
  }
  // ParseCommand rejects unknown ops; reaching here is a grammar/server
  // mismatch worth surfacing rather than silencing.
  conn->WriteLine(
      ErrorLine(cmd.id, kBadRequest, "unhandled op '" + cmd.op + "'"));
}

void Server::HandleQuery(const std::shared_ptr<Connection>& conn,
                         WireCommand cmd) {
  const auto entry = registry_.Get(cmd.graph);
  if (!entry) {
    conn->WriteLine(
        ErrorLine(cmd.id, kUnknownGraph, "unknown graph '" + cmd.graph + "'"));
    return;
  }
  const bool has_deadline = cmd.deadline_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(cmd.deadline_ms);
  const std::string id = cmd.id;
  // Captures by copy: std::function requires a copyable callable, and the
  // job must own its command and registry entry past this frame.
  AdmissionQueue::Job job = [this, conn, cmd, entry = *entry, deadline,
                             has_deadline](WorkerContext& ctx) {
    ExecuteQuery(ctx, conn, cmd, entry, deadline, has_deadline);
  };
  switch (queue_->Push(std::move(job))) {
    case AdmissionQueue::Outcome::kAccepted:
      break;
    case AdmissionQueue::Outcome::kOverloaded:
      conn->WriteLine(ErrorLine(id, kOverloaded, "admission queue full"));
      break;
    case AdmissionQueue::Outcome::kClosed:
      conn->WriteLine(ErrorLine(id, kDraining, "server draining"));
      break;
  }
}

void Server::WorkerLoop() {
  WorkerContext ctx;
  AdmissionQueue::Job job;
  while (queue_->Pop(&job)) {
    ++active_jobs_;
    job(ctx);
    --active_jobs_;
    ++completed_jobs_;
    job = nullptr;
  }
}

void Server::ExecuteQuery(WorkerContext& ctx,
                          const std::shared_ptr<Connection>& conn,
                          const WireCommand& cmd, const RegisteredGraph& entry,
                          Clock::time_point deadline, bool has_deadline) {
  // Admission latency counts against the deadline: a request that waited
  // past it fails before any enumeration work.
  double remaining_seconds = 0;
  if (has_deadline) {
    remaining_seconds =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (remaining_seconds <= 0) {
      EnumerateStats expired;
      expired.algorithm = cmd.request.algorithm;
      expired.error = "deadline exceeded before execution";
      expired.completed = false;
      aggregator_.Record(cmd.graph, expired.algorithm, expired);
      conn->WriteLine(ErrorLine(cmd.id, kDeadlineExceeded,
                                "deadline exceeded before execution"));
      return;
    }
  }

  const auto key = std::make_pair(cmd.graph, entry.generation);
  auto it = ctx.sessions.find(key);
  if (it == ctx.sessions.end()) {
    // A miss means this worker never served this generation; stale
    // generations of the same name must not pin their dead PreparedGraph.
    for (auto stale = ctx.sessions.lower_bound({cmd.graph, 0});
         stale != ctx.sessions.end() && stale->first.first == cmd.graph;)
      stale = ctx.sessions.erase(stale);
    it = ctx.sessions
             .emplace(key, std::make_unique<QuerySession>(entry.prepared))
             .first;
  }
  QuerySession& session = *it->second;

  const auto token = std::make_shared<CancellationToken>(&drain_token_);
  EnumerateRequest request = cmd.request;
  request.cancellation = token.get();
  if (has_deadline) {
    if (request.time_budget_seconds <= 0 ||
        request.time_budget_seconds > remaining_seconds)
      request.time_budget_seconds = remaining_seconds;
    reaper_->Schedule(deadline, token);
  }

  WireSink sink(conn.get(), cmd.id, cmd.count_only);
  // "sort":true buffers the run and streams the solution lines in
  // canonical order before the terminal line, making a parallel query's
  // stream byte-identical across thread counts (solution sets are
  // order-deterministic, delivery order is not; docs/wire_protocol.md).
  SortingSink sorter(&sink);
  const bool sorting = cmd.sort && !cmd.count_only;
  const EnumerateStats stats =
      session.Run(request, sorting ? static_cast<SolutionSink*>(&sorter)
                                   : &sink);
  if (sorting) sorter.Flush();
  aggregator_.Record(
      cmd.graph,
      stats.algorithm.empty() ? request.algorithm : stats.algorithm, stats);

  if (!stats.ok()) {
    conn->WriteLine(ErrorLine(cmd.id, kBadRequest, stats.error, stats.ToJson()));
  } else if (has_deadline && !stats.completed && Clock::now() >= deadline) {
    conn->WriteLine(
        ErrorLine(cmd.id, kDeadlineExceeded, "deadline exceeded", stats.ToJson()));
  } else {
    conn->WriteLine(DoneLine(cmd.id, stats.ToJson()));
  }
}

std::string Server::ServerStatsBody() const {
  const AdmissionQueue::Counters counters = queue_->counters();
  std::ostringstream body;
  body << "\"uptime_s\":";
  json::AppendDouble(body, uptime_.ElapsedSeconds());
  body << ",\"draining\":" << json::Bool(draining_.load())
       << ",\"connections\":" << open_connections_.load()
       << ",\"queued\":" << counters.depth
       << ",\"active\":" << active_jobs_.load()
       << ",\"admitted\":" << counters.admitted
       << ",\"rejected_overload\":" << counters.rejected_overload
       << ",\"rejected_draining\":" << counters.rejected_closed
       << ",\"requests\":" << aggregator_.ToJson();
  // Per-graph artifact/memory block (additive schema): the prepare
  // counters plus the adjacency-index representation footprint.
  body << ",\"graphs\":[";
  bool first = true;
  for (const auto& [name, entry] : registry_.List()) {
    if (!first) body << ',';
    first = false;
    body << "{\"name\":";
    json::AppendEscaped(body, name);
    body << ",\"generation\":" << entry.generation
         << ",\"epoch\":" << entry.prepared->epoch()
         << ",\"pending_retired_epochs\":"
         << registry_.PendingRetiredEpochs(name)
         << ",\"updates\":" << entry.prepared->lineage().ToJson()
         << ",\"artifacts\":" << entry.prepared->artifact_stats().ToJson()
         << '}';
  }
  body << ']';
  return body.str();
}

AdmissionQueue::Counters Server::admission_counters() const {
  return queue_->counters();
}

void Server::WakeAcceptor() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 0;
  ssize_t rc;
  do {
    rc = ::write(wake_pipe_[1], &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

void Server::RequestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  queue_->Close();  // new queries now answer 503
  WakeAcceptor();   // acceptor observes draining_ and stops
  MutexLock lock(&state_mu_);
  drain_thread_ = std::thread([this] { DrainLoop(); });
}

void Server::DrainLoop() {
  // Let admitted work (queued and in flight) finish within the grace
  // period. `admitted > completed` also covers the instant between a
  // worker popping a job and starting it, which depth/active would miss.
  const auto outstanding = [this] {
    return queue_->counters().admitted > completed_jobs_.load();
  };
  WallTimer grace;
  while (outstanding() &&
         grace.ElapsedSeconds() < options_.drain_grace_seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Grace over: cancel whatever is still running. Every request token
  // chains to the drain token, so this reaches all of them.
  drain_token_.Cancel();
  while (outstanding())
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Unblock connection threads; re-deliver until each one has exited, in
  // case a connection was accepted concurrently with the drain start.
  for (;;) {
    {
      MutexLock lock(&conn_mu_);
      for (const ConnectionThread& c : connections_) c.conn->ShutdownBoth();
    }
    if (open_connections_.load() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    MutexLock lock(&state_mu_);
    drained_ = true;
  }
  state_cv_.NotifyAll();
}

void Server::Wait() {
  {
    MutexLock lock(&state_mu_);
    while (!drained_) state_cv_.Wait(&state_mu_);
    if (joined_) return;
    joined_ = true;
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  {
    MutexLock lock(&conn_mu_);
    for (ConnectionThread& c : connections_)
      if (c.thread.joinable()) c.thread.join();
  }
  {
    // Safe to join while holding state_mu_: once drained_ is set the
    // drain thread touches no Server state and is about to return.
    MutexLock lock(&state_mu_);
    if (drain_thread_.joinable()) drain_thread_.join();
  }
  reaper_.reset();
}

}  // namespace serve
}  // namespace kbiplex
