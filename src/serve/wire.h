// The daemon's NDJSON wire grammar (see docs/wire_protocol.md): one JSON
// object per line in both directions. This header owns parsing of command
// lines into typed values and formatting of every response line, so the
// server, the client tool, and the tests all speak from one definition.
//
// Command lines:
//   {"op":"query","id":ID,"graph":NAME,"request":{...},
//    "deadline_ms":N,"emit":"solutions"|"count","sort":BOOL}
//   {"op":"load","id":ID,"name":NAME,"path":PATH,
//    "options":{"renumber":BOOL,"accel_budget":BYTES}}
//   {"op":"evict","id":ID,"name":NAME}
//   {"op":"update","id":ID,"name":NAME,"insert":[[L,R],...],
//    "delete":[[L,R],...],
//    "options":{"max_delta_fraction":F,"force_rebuild":BOOL}}
//   {"op":"list","id":ID}   {"op":"stats","id":ID}
//   {"op":"ping","id":ID}   {"op":"drain","id":ID}
//
// Response lines always carry the echoed "id" plus a "type"; "solution"
// is the only non-terminal type (a query streams zero or more solutions,
// then exactly one terminal "done" or "error").
#ifndef KBIPLEX_SERVE_WIRE_H_
#define KBIPLEX_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/enumerate_request.h"
#include "core/biplex.h"
#include "util/json_value.h"

namespace kbiplex {
namespace serve {

/// Structured wire error codes, HTTP-flavored so operators can read them
/// without a legend.
enum WireError : int {
  kBadRequest = 400,        // malformed JSON, unknown op/key, bad value
  kUnknownGraph = 404,      // query/evict names a graph not in the registry
  kConflict = 409,          // update raced a reload/evict; retry
  kOverloaded = 429,        // admission queue full
  kDraining = 503,          // server is shutting down
  kDeadlineExceeded = 504,  // per-request deadline expired
};

/// One parsed command line.
struct WireCommand {
  std::string op;       // "query", "load", "evict", "list", ...
  std::string id;       // the "id" member re-serialized verbatim ("null"
                        // when absent) — echoed on every response line
  std::string graph;    // query: target graph; load/evict: graph name
  std::string path;     // load: edge-list path
  bool renumber = false;  // load option: degeneracy-renumber
  uint64_t accel_budget = 0;  // load option: index memory budget in bytes
                              // (0 = unlimited; see adjacency_index.h)
  EnumerateRequest request;  // query: the parsed request
  uint64_t deadline_ms = 0;  // query: 0 = no deadline
  bool count_only = false;   // query: "emit":"count" suppresses solutions
  bool sort = false;  // query: stream solutions in canonical order (the
                      // buffered-then-sorted emission that makes parallel
                      // runs' solution streams order-deterministic)
  // update: edge delta as (left, right) pairs, in client order (the
  // normalizer sorts/dedups them).
  std::vector<std::pair<uint32_t, uint32_t>> insert_edges;
  std::vector<std::pair<uint32_t, uint32_t>> erase_edges;
  double max_delta_fraction = -1;  // update option: < 0 = server default
  bool force_rebuild = false;      // update option: skip artifact patching
};

/// Parses one command line. Returns the error message (empty on
/// success); `cmd->id` is filled even on failure whenever the line was
/// valid JSON with an "id", so the error response can still be matched.
std::string ParseCommand(const std::string& line, WireCommand* cmd);

// --------------------------------------------------------- responses ----

/// {"id":ID,"type":"solution","left":[...],"right":[...]}
std::string SolutionLine(const std::string& id, const Biplex& solution);

/// {"id":ID,"type":"done","stats":STATS_JSON}
std::string DoneLine(const std::string& id, const std::string& stats_json);

/// {"id":ID,"type":"error","code":N,"message":MSG} with an optional
/// trailing "stats" member for runs that failed after doing work.
std::string ErrorLine(const std::string& id, int code,
                      const std::string& message,
                      const std::string& stats_json = "");

/// {"id":ID,"type":TYPE, ...BODY} where `body` is a pre-rendered list of
/// `"key":value` members (may be empty).
std::string ResponseLine(const std::string& id, const std::string& type,
                         const std::string& body = "");

}  // namespace serve
}  // namespace kbiplex

#endif  // KBIPLEX_SERVE_WIRE_H_
