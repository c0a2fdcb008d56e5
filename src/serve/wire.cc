#include "serve/wire.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "api/request_parse.h"
#include "util/json.h"

namespace kbiplex {
namespace serve {
namespace {

/// Re-serializes the client's "id" scalar verbatim-enough to echo back:
/// strings re-escape, integral numbers print without a fraction, and
/// anything else (bool/null/containers) normalizes to its JSON spelling.
std::string SerializeId(const json::JsonValue* v) {
  if (v == nullptr || v->is_null()) return "null";
  if (v->is_bool()) return v->AsBool() ? "true" : "false";
  if (v->is_number()) {
    const double d = v->AsNumber();
    if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(d));
      return buf;
    }
    std::ostringstream os;
    json::AppendDouble(os, d);
    return os.str();
  }
  if (v->is_string()) {
    std::ostringstream os;
    json::AppendEscaped(os, v->AsString());
    return os.str();
  }
  return "null";  // containers make no sense as an id; normalize away
}

std::string ParseLoadOptions(const json::JsonValue& v, WireCommand* cmd) {
  if (!v.is_object()) return "'options' must be an object";
  for (const auto& [key, value] : v.AsObject()) {
    if (key == "renumber") {
      if (!value.is_bool()) return "load option 'renumber' must be a bool";
      cmd->renumber = value.AsBool();
    } else if (key == "accel_budget") {
      if (!value.is_number() || value.AsNumber() < 0 ||
          value.AsNumber() != std::floor(value.AsNumber())) {
        return "load option 'accel_budget' must be a non-negative integer";
      }
      cmd->accel_budget = static_cast<uint64_t>(value.AsNumber());
    } else {
      return "unknown load option '" + key + "'";
    }
  }
  return "";
}

std::string ParseEdgeArray(const json::JsonValue& v, const std::string& key,
                           std::vector<std::pair<uint32_t, uint32_t>>* out) {
  if (!v.is_array()) return "'" + key + "' must be an array of [L,R] pairs";
  for (const json::JsonValue& e : v.AsArray()) {
    if (!e.is_array() || e.AsArray().size() != 2) {
      return "each '" + key + "' entry must be a [left, right] pair";
    }
    uint32_t ids[2];
    for (int i = 0; i < 2; ++i) {
      const json::JsonValue& n = e.AsArray()[i];
      if (!n.is_number() || n.AsNumber() < 0 ||
          n.AsNumber() != std::floor(n.AsNumber()) ||
          n.AsNumber() > 4294967295.0) {
        return "'" + key + "' vertex ids must be 32-bit unsigned integers";
      }
      ids[i] = static_cast<uint32_t>(n.AsNumber());
    }
    out->emplace_back(ids[0], ids[1]);
  }
  return "";
}

std::string ParseUpdateOptions(const json::JsonValue& v, WireCommand* cmd) {
  if (!v.is_object()) return "'options' must be an object";
  for (const auto& [key, value] : v.AsObject()) {
    if (key == "max_delta_fraction") {
      if (!value.is_number() || value.AsNumber() < 0) {
        return "update option 'max_delta_fraction' must be a non-negative "
               "number";
      }
      cmd->max_delta_fraction = value.AsNumber();
    } else if (key == "force_rebuild") {
      if (!value.is_bool()) {
        return "update option 'force_rebuild' must be a bool";
      }
      cmd->force_rebuild = value.AsBool();
    } else {
      return "unknown update option '" + key + "'";
    }
  }
  return "";
}

}  // namespace

std::string ParseCommand(const std::string& line, WireCommand* cmd) {
  json::ParseResult parsed = json::Parse(line);
  cmd->id = "null";
  if (!parsed.ok()) return "bad JSON: " + parsed.error;
  const json::JsonValue& root = parsed.value;
  if (!root.is_object()) return "command must be a JSON object";
  cmd->id = SerializeId(root.Find("id"));

  const json::JsonValue* op = root.Find("op");
  if (op == nullptr || !op->is_string()) {
    return "command needs a string 'op'";
  }
  cmd->op = op->AsString();

  // Per-op key whitelists: unknown keys are structured errors, exactly
  // like unknown request keys (wire-protocol hygiene; a typoed
  // "deadline_ms" must not silently run without a deadline).
  for (const auto& [key, value] : root.AsObject()) {
    if (key == "op" || key == "id") continue;
    if (cmd->op == "query") {
      if (key == "graph") {
        if (!value.is_string()) return "'graph' must be a string";
        cmd->graph = value.AsString();
        continue;
      }
      if (key == "request") {
        if (std::string err = ParseRequestJson(value, &cmd->request);
            !err.empty()) {
          return err;
        }
        continue;
      }
      if (key == "deadline_ms") {
        if (!value.is_number() || value.AsNumber() < 0 ||
            value.AsNumber() != std::floor(value.AsNumber())) {
          return "'deadline_ms' must be a non-negative integer";
        }
        cmd->deadline_ms = static_cast<uint64_t>(value.AsNumber());
        continue;
      }
      if (key == "emit") {
        if (value.is_string() && value.AsString() == "count") {
          cmd->count_only = true;
          continue;
        }
        if (value.is_string() && value.AsString() == "solutions") {
          cmd->count_only = false;
          continue;
        }
        return "'emit' must be \"solutions\" or \"count\"";
      }
      if (key == "sort") {
        if (!value.is_bool()) return "'sort' must be a boolean";
        cmd->sort = value.AsBool();
        continue;
      }
    } else if (cmd->op == "load") {
      if (key == "name") {
        if (!value.is_string()) return "'name' must be a string";
        cmd->graph = value.AsString();
        continue;
      }
      if (key == "path") {
        if (!value.is_string()) return "'path' must be a string";
        cmd->path = value.AsString();
        continue;
      }
      if (key == "options") {
        if (std::string err = ParseLoadOptions(value, cmd); !err.empty()) {
          return err;
        }
        continue;
      }
    } else if (cmd->op == "evict") {
      if (key == "name") {
        if (!value.is_string()) return "'name' must be a string";
        cmd->graph = value.AsString();
        continue;
      }
    } else if (cmd->op == "update") {
      if (key == "name") {
        if (!value.is_string()) return "'name' must be a string";
        cmd->graph = value.AsString();
        continue;
      }
      if (key == "insert") {
        if (std::string err = ParseEdgeArray(value, key, &cmd->insert_edges);
            !err.empty()) {
          return err;
        }
        continue;
      }
      if (key == "delete") {
        if (std::string err = ParseEdgeArray(value, key, &cmd->erase_edges);
            !err.empty()) {
          return err;
        }
        continue;
      }
      if (key == "options") {
        if (std::string err = ParseUpdateOptions(value, cmd); !err.empty()) {
          return err;
        }
        continue;
      }
    }
    return "unknown key '" + key + "' for op '" + cmd->op + "'";
  }

  if (cmd->op == "query") {
    if (cmd->graph.empty()) return "query needs a 'graph'";
  } else if (cmd->op == "load") {
    if (cmd->graph.empty()) return "load needs a 'name'";
    if (cmd->path.empty()) return "load needs a 'path'";
  } else if (cmd->op == "evict") {
    if (cmd->graph.empty()) return "evict needs a 'name'";
  } else if (cmd->op == "update") {
    if (cmd->graph.empty()) return "update needs a 'name'";
  } else if (cmd->op != "list" && cmd->op != "stats" && cmd->op != "ping" &&
             cmd->op != "drain") {
    return "unknown op '" + cmd->op + "'";
  }
  return "";
}

std::string SolutionLine(const std::string& id, const Biplex& solution) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"type\":\"solution\",\"left\":[";
  for (size_t i = 0; i < solution.left.size(); ++i) {
    if (i != 0) os << ",";
    os << solution.left[i];
  }
  os << "],\"right\":[";
  for (size_t i = 0; i < solution.right.size(); ++i) {
    if (i != 0) os << ",";
    os << solution.right[i];
  }
  os << "]}";
  return os.str();
}

std::string DoneLine(const std::string& id, const std::string& stats_json) {
  return "{\"id\":" + id + ",\"type\":\"done\",\"stats\":" + stats_json +
         "}";
}

std::string ErrorLine(const std::string& id, int code,
                      const std::string& message,
                      const std::string& stats_json) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"type\":\"error\",\"code\":" << code
     << ",\"message\":";
  json::AppendEscaped(os, message);
  if (!stats_json.empty()) os << ",\"stats\":" << stats_json;
  os << "}";
  return os.str();
}

std::string ResponseLine(const std::string& id, const std::string& type,
                         const std::string& body) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"type\":";
  json::AppendEscaped(os, type);
  if (!body.empty()) os << "," << body;
  os << "}";
  return os.str();
}

}  // namespace serve
}  // namespace kbiplex
