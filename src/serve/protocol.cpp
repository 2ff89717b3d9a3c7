#include "serve/protocol.h"

#include <cctype>
#include <utility>

#include "scenario/json.h"
#include "scenario/result_store.h"

namespace cloudrepro::serve {

namespace {

using scenario::Json;
using scenario::JsonError;
using scenario::JsonObject;

bool is_content_hash(std::string_view text) {
  if (text.size() != 64) return false;
  for (const char c : text) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

Json parse_frame_json(std::string_view frame) {
  try {
    return Json::parse(frame);
  } catch (const JsonError& error) {
    throw ProtocolError{"bad_json", std::string{"frame is not JSON: "} + error.what()};
  }
}

}  // namespace

Request parse_request(std::string_view frame) {
  const Json doc = parse_frame_json(frame);
  if (!doc.is_object()) {
    throw ProtocolError{"bad_json", "request must be a JSON object"};
  }

  if (const Json* protocol = doc.find("protocol")) {
    if (!protocol->is_number() || protocol->as_int() != kProtocolVersion) {
      throw ProtocolError{"protocol",
                          "unsupported protocol version (server speaks " +
                              std::to_string(kProtocolVersion) + ")"};
    }
  }

  const Json* op = doc.find("op");
  if (!op || !op->is_string()) {
    throw ProtocolError{"bad_field", "missing string field \"op\""};
  }

  Request request;
  const std::string& op_name = op->as_string();
  if (op_name == "GET") {
    request.op = Request::Op::kGet;
  } else if (op_name == "LIST") {
    request.op = Request::Op::kList;
  } else if (op_name == "STATS") {
    request.op = Request::Op::kStats;
  } else if (op_name == "SHARD_PULL") {
    request.op = Request::Op::kShardPull;
  } else if (op_name == "SHARD_PUSH") {
    request.op = Request::Op::kShardPush;
  } else {
    throw ProtocolError{"bad_op", "unknown op \"" + op_name + "\""};
  }

  // Shared optional fields.
  if (const Json* seed = doc.find("seed")) {
    try {
      request.seed = seed->as_uint();
    } catch (const JsonError&) {
      throw ProtocolError{"bad_field", "\"seed\" must be a non-negative integer"};
    }
  }
  if (const Json* schema = doc.find("schema_version")) {
    try {
      request.schema_version = static_cast<int>(schema->as_int());
    } catch (const JsonError&) {
      throw ProtocolError{"bad_field", "\"schema_version\" must be an integer"};
    }
  }

  if (request.op == Request::Op::kShardPull) {
    const Json* worker = doc.find("worker");
    if (!worker || !worker->is_string() || worker->as_string().empty()) {
      throw ProtocolError{"bad_field",
                          "SHARD_PULL needs a non-empty string \"worker\""};
    }
    request.worker = worker->as_string();
    return request;
  }
  if (request.op == Request::Op::kShardPush) {
    const Json* worker = doc.find("worker");
    if (!worker || !worker->is_string() || worker->as_string().empty()) {
      throw ProtocolError{"bad_field",
                          "SHARD_PUSH needs a non-empty string \"worker\""};
    }
    request.worker = worker->as_string();
    const Json* key = doc.find("key");
    if (!key || !key->is_string() || key->as_string().empty()) {
      throw ProtocolError{"bad_field",
                          "SHARD_PUSH needs a non-empty string \"key\""};
    }
    request.key = key->as_string();
    const Json* cell = doc.find("cell");
    if (!cell || !cell->is_number()) {
      throw ProtocolError{"bad_field", "SHARD_PUSH needs an integer \"cell\""};
    }
    try {
      request.cell = static_cast<std::size_t>(cell->as_uint());
    } catch (const JsonError&) {
      throw ProtocolError{"bad_field", "\"cell\" must be a non-negative integer"};
    }
    if (const Json* records = doc.find("records")) {
      if (!records->is_array()) {
        throw ProtocolError{"bad_field", "\"records\" must be an array of strings"};
      }
      for (const Json& line : records->as_array()) {
        if (!line.is_string()) {
          throw ProtocolError{"bad_field",
                              "\"records\" must be an array of strings"};
        }
        request.records.push_back(line.as_string());
      }
    }
    if (const Json* wall = doc.find("wall_s")) {
      if (!wall->is_number()) {
        throw ProtocolError{"bad_field", "\"wall_s\" must be a number"};
      }
      request.wall_s = wall->as_double();
    }
    return request;
  }
  if (request.op != Request::Op::kGet) return request;

  int addresses = 0;
  if (const Json* spec = doc.find("spec")) {
    ++addresses;
    try {
      request.spec = scenario::ScenarioSpec::from_json(*spec);
    } catch (const JsonError& error) {
      throw ProtocolError{"bad_spec", std::string{"inline spec rejected: "} + error.what()};
    }
  }
  if (const Json* name = doc.find("scenario")) {
    ++addresses;
    if (!name->is_string() || name->as_string().empty()) {
      throw ProtocolError{"bad_field", "\"scenario\" must be a non-empty string"};
    }
    request.scenario_name = name->as_string();
  }
  if (const Json* hash = doc.find("hash")) {
    ++addresses;
    if (!hash->is_string() || !is_content_hash(hash->as_string())) {
      throw ProtocolError{"bad_field", "\"hash\" must be a 64-hex content hash"};
    }
    request.hash = hash->as_string();
  }
  if (addresses != 1) {
    throw ProtocolError{
        "bad_field",
        op_name + " needs exactly one of \"spec\", \"scenario\", \"hash\""};
  }
  if (request.schema_version &&
      *request.schema_version != scenario::kResultSchemaVersion) {
    throw ProtocolError{"schema",
                        "result schema version mismatch (server serves v" +
                            std::to_string(scenario::kResultSchemaVersion) + ")"};
  }
  return request;
}

std::string error_response(std::string_view code, std::string_view message) {
  JsonObject error;
  error["code"] = Json{std::string{code}};
  error["message"] = Json{std::string{message}};
  JsonObject root;
  root["error"] = Json{std::move(error)};
  root["ok"] = Json{false};
  return Json{std::move(root)}.canonical();
}

std::string get_response(const std::string& hash, std::uint64_t seed,
                         std::string_view hit, const std::string& summary_json) {
  JsonObject root;
  root["hash"] = Json{hash};
  root["hit"] = Json{std::string{hit}};
  root["ok"] = Json{true};
  root["seed"] = Json{seed};
  // Parse-then-embed: the summary is canonical JSON, and canonical JSON
  // round-trips bit-exactly (pinned by the scenario JSON tests), so the
  // sub-document's bytes inside this response equal the stored summary.
  root["summary"] = Json::parse(summary_json);
  return Json{std::move(root)}.canonical();
}

Response parse_response(std::string_view frame) {
  const Json doc = parse_frame_json(frame);
  if (!doc.is_object()) {
    throw ProtocolError{"bad_json", "response must be a JSON object"};
  }
  const Json* ok = doc.find("ok");
  if (!ok || !ok->is_bool()) {
    throw ProtocolError{"bad_field", "response missing bool field \"ok\""};
  }

  Response response;
  response.ok = ok->as_bool();
  if (!response.ok) {
    const Json* error = doc.find("error");
    if (!error || !error->is_object()) {
      throw ProtocolError{"bad_field", "error response missing \"error\" object"};
    }
    if (const Json* code = error->find("code"); code && code->is_string()) {
      response.error_code = code->as_string();
    }
    if (const Json* message = error->find("message");
        message && message->is_string()) {
      response.error_message = message->as_string();
    }
    return response;
  }
  if (const Json* summary = doc.find("summary")) {
    response.summary = summary->canonical();
    if (const Json* hash = doc.find("hash"); hash && hash->is_string()) {
      response.hash = hash->as_string();
    }
    if (const Json* seed = doc.find("seed"); seed && seed->is_number()) {
      response.seed = seed->as_uint();
    }
    if (const Json* hit = doc.find("hit"); hit && hit->is_string()) {
      response.hit = hit->as_string();
    }
  } else {
    response.body = doc.canonical();
  }
  return response;
}

std::string get_request_frame(const scenario::ScenarioSpec& spec,
                              std::optional<std::uint64_t> seed) {
  JsonObject root;
  root["op"] = Json{"GET"};
  root["protocol"] = Json{kProtocolVersion};
  root["schema_version"] = Json{scenario::kResultSchemaVersion};
  if (seed) root["seed"] = Json{*seed};
  root["spec"] = spec.to_json();
  return Json{std::move(root)}.canonical();
}

std::string get_request_frame_by_name(std::string_view name,
                                      std::optional<std::uint64_t> seed) {
  JsonObject root;
  root["op"] = Json{"GET"};
  root["protocol"] = Json{kProtocolVersion};
  root["scenario"] = Json{std::string{name}};
  root["schema_version"] = Json{scenario::kResultSchemaVersion};
  if (seed) root["seed"] = Json{*seed};
  return Json{std::move(root)}.canonical();
}

std::string get_request_frame_by_hash(std::string_view hash, std::uint64_t seed) {
  JsonObject root;
  root["hash"] = Json{std::string{hash}};
  root["op"] = Json{"GET"};
  root["protocol"] = Json{kProtocolVersion};
  root["schema_version"] = Json{scenario::kResultSchemaVersion};
  root["seed"] = Json{seed};
  return Json{std::move(root)}.canonical();
}

namespace {

/// Shared precondition for the shard response parsers: the frame must be a
/// JSON object with `"ok":true`. Error frames should be routed through
/// parse_response by callers; reaching here with one is a protocol bug.
Json parse_ok_object(std::string_view frame, const char* what) {
  Json doc = parse_frame_json(frame);
  if (!doc.is_object()) {
    throw ProtocolError{"bad_json",
                        std::string{what} + " response must be a JSON object"};
  }
  const Json* ok = doc.find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) {
    throw ProtocolError{"bad_field",
                        std::string{what} + " response is not \"ok\":true"};
  }
  return doc;
}

std::size_t require_size(const Json& object, const char* field,
                         const char* what) {
  const Json* value = object.find(field);
  if (!value || !value->is_number()) {
    throw ProtocolError{"bad_field", std::string{what} +
                                         " response missing integer \"" +
                                         field + "\""};
  }
  try {
    return static_cast<std::size_t>(value->as_uint());
  } catch (const JsonError&) {
    throw ProtocolError{"bad_field", std::string{"\""} + field +
                                         "\" must be a non-negative integer"};
  }
}

}  // namespace

std::string shard_idle_response(int retry_ms) {
  JsonObject root;
  root["idle"] = Json{true};
  root["ok"] = Json{true};
  root["retry_ms"] = Json{retry_ms};
  return Json{std::move(root)}.canonical();
}

std::string shard_assignment_response(const std::string& key, std::size_t cell,
                                      const scenario::ScenarioSpec& spec,
                                      std::uint64_t seed,
                                      const std::vector<std::string>& resume) {
  JsonObject assignment;
  assignment["cell"] = Json{static_cast<std::uint64_t>(cell)};
  assignment["key"] = Json{key};
  std::vector<Json> lines;
  lines.reserve(resume.size());
  for (const std::string& line : resume) lines.emplace_back(line);
  assignment["resume"] = Json{std::move(lines)};
  assignment["seed"] = Json{seed};
  assignment["spec"] = spec.to_json();
  JsonObject root;
  root["assignment"] = Json{std::move(assignment)};
  root["ok"] = Json{true};
  return Json{std::move(root)}.canonical();
}

ShardAssignment parse_shard_pull_response(std::string_view frame) {
  const Json doc = parse_ok_object(frame, "SHARD_PULL");
  ShardAssignment out;
  if (const Json* idle = doc.find("idle"); idle && idle->is_bool() &&
                                           idle->as_bool()) {
    out.idle = true;
    if (const Json* retry = doc.find("retry_ms");
        retry && retry->is_number()) {
      out.retry_ms = static_cast<int>(retry->as_int());
    }
    return out;
  }
  const Json* assignment = doc.find("assignment");
  if (!assignment || !assignment->is_object()) {
    throw ProtocolError{"bad_field",
                        "SHARD_PULL response has neither \"idle\" nor "
                        "\"assignment\""};
  }
  out.idle = false;
  const Json* key = assignment->find("key");
  if (!key || !key->is_string() || key->as_string().empty()) {
    throw ProtocolError{"bad_field", "assignment missing \"key\""};
  }
  out.key = key->as_string();
  out.cell = require_size(*assignment, "cell", "SHARD_PULL");
  const Json* seed = assignment->find("seed");
  if (!seed || !seed->is_number()) {
    throw ProtocolError{"bad_field", "assignment missing \"seed\""};
  }
  try {
    out.seed = seed->as_uint();
  } catch (const JsonError&) {
    throw ProtocolError{"bad_field",
                        "\"seed\" must be a non-negative integer"};
  }
  const Json* spec = assignment->find("spec");
  if (!spec) {
    throw ProtocolError{"bad_field", "assignment missing \"spec\""};
  }
  try {
    out.spec = scenario::ScenarioSpec::from_json(*spec);
  } catch (const JsonError& error) {
    throw ProtocolError{"bad_spec",
                        std::string{"assignment spec rejected: "} +
                            error.what()};
  }
  if (const Json* resume = assignment->find("resume")) {
    if (!resume->is_array()) {
      throw ProtocolError{"bad_field",
                          "\"resume\" must be an array of strings"};
    }
    for (const Json& line : resume->as_array()) {
      if (!line.is_string()) {
        throw ProtocolError{"bad_field",
                            "\"resume\" must be an array of strings"};
      }
      out.resume.push_back(line.as_string());
    }
  }
  return out;
}

std::string shard_push_response(const ShardPushAck& ack) {
  JsonObject root;
  root["accepted"] = Json{static_cast<std::uint64_t>(ack.accepted)};
  root["campaign_complete"] = Json{ack.campaign_complete};
  root["cell_complete"] = Json{ack.cell_complete};
  root["dropped"] = Json{static_cast<std::uint64_t>(ack.dropped)};
  root["duplicates"] = Json{static_cast<std::uint64_t>(ack.duplicates)};
  root["ok"] = Json{true};
  return Json{std::move(root)}.canonical();
}

ShardPushAck parse_shard_push_response(std::string_view frame) {
  const Json doc = parse_ok_object(frame, "SHARD_PUSH");
  ShardPushAck ack;
  ack.accepted = require_size(doc, "accepted", "SHARD_PUSH");
  ack.duplicates = require_size(doc, "duplicates", "SHARD_PUSH");
  ack.dropped = require_size(doc, "dropped", "SHARD_PUSH");
  const Json* cell = doc.find("cell_complete");
  if (!cell || !cell->is_bool()) {
    throw ProtocolError{"bad_field",
                        "SHARD_PUSH response missing \"cell_complete\""};
  }
  ack.cell_complete = cell->as_bool();
  const Json* campaign = doc.find("campaign_complete");
  if (!campaign || !campaign->is_bool()) {
    throw ProtocolError{"bad_field",
                        "SHARD_PUSH response missing \"campaign_complete\""};
  }
  ack.campaign_complete = campaign->as_bool();
  return ack;
}

std::string list_request_frame() {
  JsonObject root;
  root["op"] = Json{"LIST"};
  root["protocol"] = Json{kProtocolVersion};
  return Json{std::move(root)}.canonical();
}

std::string stats_request_frame() {
  JsonObject root;
  root["op"] = Json{"STATS"};
  root["protocol"] = Json{kProtocolVersion};
  return Json{std::move(root)}.canonical();
}

std::string shard_pull_request_frame(std::string_view worker) {
  JsonObject root;
  root["op"] = Json{"SHARD_PULL"};
  root["protocol"] = Json{kProtocolVersion};
  root["worker"] = Json{std::string{worker}};
  return Json{std::move(root)}.canonical();
}

std::string shard_push_request_frame(std::string_view worker,
                                     const std::string& key, std::size_t cell,
                                     const std::vector<std::string>& records,
                                     double wall_s) {
  JsonObject root;
  root["cell"] = Json{static_cast<std::uint64_t>(cell)};
  root["key"] = Json{key};
  root["op"] = Json{"SHARD_PUSH"};
  root["protocol"] = Json{kProtocolVersion};
  std::vector<Json> lines;
  lines.reserve(records.size());
  for (const std::string& line : records) lines.emplace_back(line);
  root["records"] = Json{std::move(lines)};
  root["wall_s"] = Json{wall_s};
  root["worker"] = Json{std::string{worker}};
  return Json{std::move(root)}.canonical();
}

}  // namespace cloudrepro::serve
