#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.h"

namespace cloudrepro::serve {

/// Version of the serve wire protocol. A server answers requests carrying
/// no `protocol` field or the current value; anything else is rejected, so
/// an old client fails loudly instead of misparsing.
inline constexpr int kProtocolVersion = 1;

/// A request frame failed to parse or failed validation. The message is
/// safe to echo back to the client (it names fields, never file paths).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  /// Stable machine-readable discriminator ("bad_json", "bad_field", ...).
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// One decoded client request. The GET key is the paper-facing triple
/// (content hash, seed, schema version): the scenario may arrive as an
/// inline spec (hash derived), a registry name (hash of the named spec), or
/// a bare content hash (resolved against the server's registry index).
struct Request {
  enum class Op { kGet, kList, kStats, kShardPull, kShardPush };
  Op op = Op::kGet;

  // GET addressing — exactly one of these three is set.
  std::optional<scenario::ScenarioSpec> spec;  ///< Inline spec document.
  std::string scenario_name;                   ///< Registry name.
  std::string hash;                            ///< 64-hex content hash.

  /// Defaults to the resolved spec's own seed when absent.
  std::optional<std::uint64_t> seed;
  /// When present must equal scenario::kResultSchemaVersion — a client
  /// built against other measurement semantics must not be served bytes it
  /// cannot reproduce.
  std::optional<int> schema_version;

  // SHARD_PULL / SHARD_PUSH fields.
  std::string worker;                ///< Worker name (liveness attribution).
  std::string key;                   ///< Session key (opaque to workers).
  std::size_t cell = 0;              ///< SHARD_PUSH: cell the records are for.
  std::vector<std::string> records;  ///< SHARD_PUSH: journal record lines.
  double wall_s = 0.0;               ///< SHARD_PUSH: cell wall time (metrics).
};

/// Parses one request frame (a line of JSON). Throws ProtocolError.
Request parse_request(std::string_view frame);

/// Response builders. Every response is one line of canonical JSON with an
/// "ok" discriminator; the GET success payload embeds the summary document
/// verbatim-by-value (canonical JSON round-trips bit-exactly, which is what
/// keeps a fetched summary byte-identical to `cloudrepro run` output).
std::string error_response(std::string_view code, std::string_view message);
/// `hit` is the server-side disposition: "hit" (served from cache),
/// "miss" / "partial" (campaign executed by this request), "coalesced"
/// (shared another request's in-flight execution).
std::string get_response(const std::string& hash, std::uint64_t seed,
                         std::string_view hit, const std::string& summary_json);

/// Client-side: parses a response line; throws ProtocolError on frames that
/// are not a valid response document.
struct Response {
  bool ok = false;
  std::string error_code;     ///< Set when !ok.
  std::string error_message;  ///< Set when !ok.
  std::string hash;           ///< GET only.
  std::uint64_t seed = 0;     ///< GET only.
  std::string hit;            ///< GET only.
  std::string summary;        ///< GET only: canonical summary bytes.
  std::string body;           ///< LIST/STATS: the whole canonical document.
};
Response parse_response(std::string_view frame);

// --- Shard coordination (SHARD_PULL / SHARD_PUSH) ------------------------
// SHARD_PULL registers the connection as a worker and claims the next
// unassigned cell; SHARD_PUSH streams a cell's journal records back.
// Campaigns start via GET, so single-flight stays the only admission path,
// and the coordinator decides cell completion from the records alone.
// Workers never see the registry or the store — assignments ship the spec
// inline and records are opaque journal lines.

/// One SHARD_PULL outcome: an assignment, or idle (retry later).
struct ShardAssignment {
  bool idle = true;
  int retry_ms = 100;                          ///< Meaningful when idle.
  std::string key;                             ///< Session key; echo in PUSH.
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  std::optional<scenario::ScenarioSpec> spec;  ///< Inline spec.
  std::vector<std::string> resume;             ///< Known record lines.
};
std::string shard_idle_response(int retry_ms);
std::string shard_assignment_response(const std::string& key, std::size_t cell,
                                      const scenario::ScenarioSpec& spec,
                                      std::uint64_t seed,
                                      const std::vector<std::string>& resume);
ShardAssignment parse_shard_pull_response(std::string_view frame);

/// SHARD_PUSH acknowledgement: the plan's ingestion outcome.
struct ShardPushAck {
  std::size_t accepted = 0;
  std::size_t duplicates = 0;
  std::size_t dropped = 0;
  bool cell_complete = false;
  bool campaign_complete = false;
};
std::string shard_push_response(const ShardPushAck& ack);
ShardPushAck parse_shard_push_response(std::string_view frame);

/// Canonical request frames (no trailing newline), used by the client and
/// by tests.
std::string get_request_frame(const scenario::ScenarioSpec& spec,
                              std::optional<std::uint64_t> seed);
std::string get_request_frame_by_name(std::string_view name,
                                      std::optional<std::uint64_t> seed);
std::string get_request_frame_by_hash(std::string_view hash,
                                      std::uint64_t seed);
std::string list_request_frame();
std::string stats_request_frame();
std::string shard_pull_request_frame(std::string_view worker);
std::string shard_push_request_frame(std::string_view worker,
                                     const std::string& key, std::size_t cell,
                                     const std::vector<std::string>& records,
                                     double wall_s);

}  // namespace cloudrepro::serve
